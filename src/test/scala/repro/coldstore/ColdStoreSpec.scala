package repro.coldstore

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.parquet.schema.LogicalTypeAnnotation
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName

import repro.{Oracle, SparkSpec, SynthData}
import repro.ColdStoreFixture.{NFiles, dir}
import repro.core.Queries
import repro.scan.{ParquetFile, ParquetLayout}

class ColdStoreSpec extends SparkSpec {

  private lazy val files = ColdStore.catalog(dir)
  /** The first day of the shipdate domain: Q1's scan has no lower bound. */
  private val firstDay = java.time.LocalDate.ofEpochDay(SynthData.ShipdateEpochDay).toString

  test("the cold store contains the requested number of gzip Parquet files") {
    assert(ColdStore.listFiles(dir).size == NFiles)
  }

  test("the catalog reads footer statistics: rows, bytes, shipdate min/max") {
    assert(files.size == NFiles)
    assert(files.map(_.rows).sum == spark.read.parquet(dir).count())
    files.foreach { f =>
      assert(f.footerBytes > 0 && f.bytes > f.footerBytes)
      assert(f.minKey <= f.maxKey)
    }
  }

  test("global sort by l_shipdate yields disjoint, ordered file ranges") {
    files.sortBy(_.minKey).sliding(2).foreach { case Seq(a, b) =>
      assert(a.maxKey <= b.minKey, s"${a.path} overlaps ${b.path}")
    }
  }

  test("Q6's one-year window prunes ~80-90 % of the files (Fig 11)") {
    val (_, info) = ColdStore.prunedScan(spark, dir, Queries.Q6DateLo, Queries.Q6DateHi)
    assert(info.prunedFraction > 0.70 && info.prunedFraction <= 0.95, s"paper ~0.80, ours $info")
  }

  test("Q1's cutoff prunes only the trailing files (~2-7 %)") {
    val (_, info) = ColdStore.prunedScan(spark, dir, firstDay, Queries.Q1CutoffDate)
    assert(info.prunedFraction > 0.0 && info.prunedFraction < 0.15, s"paper ~0.02, ours $info")
  }

  test("pruning is conservative: the pruned scan loses no qualifying rows") {
    val (df, info) = ColdStore.prunedScan(spark, dir, Queries.Q6DateLo, Queries.Q6DateHi)
    val prunedCount = df.filter(Queries.Q6Shipdate).count()
    val fullCount   = spark.read.parquet(dir).filter(Queries.Q6Shipdate).count()
    assert(prunedCount == fullCount)
    assert(info.survivingFiles < info.totalFiles, "pruning actually removed files")
  }

  test("Q6 over the pruned scan matches DuckDB over the full relation") {
    val (df, _) = ColdStore.prunedScan(spark, dir, Queries.Q6DateLo, Queries.Q6DateHi)
    val full = spark.read.parquet(dir)
    Oracle.assertEquivalent(Queries.q6(df), Queries.q6DuckSql, "lineitem" -> full)
  }

  test("Q1 over the pruned scan matches DuckDB over the full relation") {
    val (df, _) = ColdStore.prunedScan(spark, dir, firstDay, Queries.Q1CutoffDate)
    val full = spark.read.parquet(dir)
    Oracle.assertEquivalent(Queries.q1(df), Queries.q1DuckSql, "lineitem" -> full)
  }

  test("an empty prune window yields an empty scan") {
    val (df, info) = ColdStore.prunedScan(spark, dir, "1890-01-01", "1890-12-31")
    assert(df.count() == 0)
    assert(info.survivingFiles == 0)
    assert(info.prunedFraction == 1.0)
  }

  test("a store without l_shipdate statistics prunes nothing, and Q6 over it matches DuckDB") {
    val root = java.nio.file.Files.createTempDirectory("coldstore")
    try {
      val store = s"$root/lineitem"
      val full  = spark.read.parquet(dir)
      full.coalesce(2).write.option("parquet.column.statistics.enabled", "false").parquet(store)
      val rowGroups = ColdStore.catalog(store).flatMap(_.rowGroups)
      assert(rowGroups.nonEmpty && rowGroups.forall(rg =>
        rg.minKey == Double.NegativeInfinity && rg.maxKey == Double.PositiveInfinity), rowGroups)
      val (df, info) = ColdStore.prunedScan(spark, store, Queries.Q6DateLo, Queries.Q6DateHi)
      assert(info.survivingFiles == info.totalFiles, info)
      Oracle.assertEquivalent(Queries.q6(df), Queries.q6DuckSql, "lineitem" -> full)
    } finally org.apache.commons.io.FileUtils.deleteDirectory(root.toFile)
  }

  test("an empty table's store has files without row groups, and every window prunes them") {
    val root = java.nio.file.Files.createTempDirectory("coldstore")
    try {
      ColdStore.write(spark.read.parquet(dir).limit(0), s"$root/lineitem", NFiles)
      val empty = ColdStore.catalog(s"$root/lineitem")
      assert(empty.nonEmpty && empty.forall(f => f.rowGroups.isEmpty && f.rows == 0), empty)
      val (df, info) = ColdStore.prunedScan(spark, s"$root/lineitem", firstDay, Queries.Q1CutoffDate)
      assert(info.survivingFiles == 0 && df.count() == 0, info)
    } finally org.apache.commons.io.FileUtils.deleteDirectory(root.toFile)
  }

  test("the layout bridge reflects the real files: paths, sizes, key order") {
    assert(files.map(_.path) == ColdStore.listFiles(dir))
    files.foreach { f =>
      assert(f.bytes == new java.io.File(f.path).length, f.path)
      f.rowGroups.foreach { rg =>
        assert(rg.minKey >= 0.0 && rg.maxKey <= 1.0)
        assert(rg.chunks.nonEmpty)
      }
    }
  }

  test("measured column fractions sum to one and include every column") {
    val fractions = ParquetLayout.columnFractions(files)
    assert(math.abs(fractions.values.sum - 1.0) < 1e-9)
    assert(fractions.keySet == spark.read.parquet(dir).columns.toSet)
    assert(fractions.values.forall(_ > 0))
  }

  test("the pruned scan's schema is the one Spark infers, for a non-empty and an empty window") {
    val inferred = spark.read.parquet(dir).schema
    for ((lo, hi) <- Seq((Queries.Q6DateLo, Queries.Q6DateHi), ("1890-01-01", "1890-12-31"))) {
      val (df, _) = ColdStore.prunedScan(spark, dir, lo, hi)
      assert(df.schema == inferred, s"window $lo..$hi")
    }
  }

  test("quantity, price, discount and tax are stored as Parquet INT64 decimals") {
    val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(files.head.path), new Configuration()))
    val schema = try reader.getFooter.getFileMetaData.getSchema finally reader.close()
    for (c <- Seq("l_quantity", "l_extendedprice", "l_discount", "l_tax")) {
      val t = schema.getColumnDescription(Array(c)).getPrimitiveType
      assert(t.getPrimitiveTypeName == PrimitiveTypeName.INT64, c)
      assert(t.getLogicalTypeAnnotation == LogicalTypeAnnotation.decimalType(2, 15), c)
    }
  }

  test("the concurrent footer read is deterministic: two catalogs are equal") {
    assert(ColdStore.catalog(dir) == ColdStore.catalog(dir))
  }

  test("a second write of the same rows gives the same files: rows and shipdate min/max") {
    val root = java.nio.file.Files.createTempDirectory("coldstore")
    try {
      ColdStore.write(SynthData.lineitem(spark, sf = 0.01), s"$root/lineitem", NFiles)
      def shape(fs: Seq[ParquetFile]) = fs.map(f => (f.rows, f.minKey, f.maxKey))
      assert(shape(ColdStore.catalog(s"$root/lineitem")) == shape(files))
    } finally org.apache.commons.io.FileUtils.deleteDirectory(root.toFile)
  }

  test("file i holds the days of sortedTable's key slice i") {
    ParquetLayout.sortedTable(NFiles, totalBytes = 1L << 20, totalRows = 0).zip(files).foreach {
      case (slice, f) =>
        assert(f.minKey >= slice.minKey, f.path)
        assert(f.maxKey < slice.maxKey, f.path)
    }
  }
}
