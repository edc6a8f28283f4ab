package repro.coldstore

import repro.{Oracle, SparkSpec, SynthData}
import repro.ColdStoreFixture.{NFiles, dir}
import repro.core.Queries
import repro.scan.ParquetLayout

class ColdStoreSpec extends SparkSpec {

  private lazy val stats = ColdStore.catalog(dir)

  test("the cold store contains the requested number of gzip Parquet files") {
    assert(ColdStore.listFiles(dir).size == NFiles)
  }

  test("the catalog reads footer statistics: rows, bytes, shipdate min/max") {
    assert(stats.size == NFiles)
    assert(stats.map(_.rows).sum == spark.read.parquet(dir).count())
    stats.foreach { s =>
      assert(s.bytes > 0)
      assert(s.minShipdateDays <= s.maxShipdateDays)
    }
  }

  test("global sort by l_shipdate yields disjoint, ordered file ranges") {
    val ordered = stats.sortBy(_.minShipdateDays)
    ordered.sliding(2).foreach { case Seq(a, b) =>
      assert(a.maxShipdateDays <= b.minShipdateDays,
        s"${a.path} overlaps ${b.path}")
    }
  }

  test("Q6's one-year window prunes ~80-90 % of the files (Fig 11)") {
    val surviving = ColdStore.pruneFiles(stats, Queries.Q6DateLo, Queries.Q6DateHi)
    val prunedFraction = (stats.size - surviving.size).toDouble / stats.size
    assert(prunedFraction > 0.70 && prunedFraction <= 0.95, s"paper ~0.80, ours $prunedFraction")
  }

  test("Q1's cutoff prunes only the trailing files (~2-7 %)") {
    val surviving = ColdStore.pruneFiles(stats, "1992-01-01", Queries.Q1CutoffDate)
    val prunedFraction = (stats.size - surviving.size).toDouble / stats.size
    assert(prunedFraction > 0.0 && prunedFraction < 0.15, s"paper ~0.02, ours $prunedFraction")
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
    val (df, _) = ColdStore.prunedScan(spark, dir, "1992-01-01", Queries.Q1CutoffDate)
    val full = spark.read.parquet(dir)
    Oracle.assertEquivalent(Queries.q1(df), Queries.q1DuckSql, "lineitem" -> full)
  }

  test("an empty prune window yields an empty scan") {
    val (df, info) = ColdStore.prunedScan(spark, dir, "1890-01-01", "1890-12-31")
    assert(df.count() == 0)
    assert(info.survivingFiles == 0)
    assert(info.prunedFraction == 1.0)
  }

  test("the layout bridge reflects the real files: paths, sizes, key order") {
    val layout = ColdStore.layout(dir)
    assert(layout.size == NFiles)
    layout.foreach { f =>
      assert(f.rowGroups.nonEmpty)
      f.rowGroups.foreach { rg =>
        assert(rg.minKey >= -0.01 && rg.maxKey <= 1.01)
        assert(rg.minKey <= rg.maxKey)
        assert(rg.chunks.nonEmpty)
      }
    }
    // File byte totals from column chunks approximate on-disk sizes.
    val chunkBytes = layout.map(f => f.rowGroups.map(_.bytes).sum).sum.toDouble
    val diskBytes  = stats.map(_.bytes).sum.toDouble
    assert(chunkBytes > 0.6 * diskBytes && chunkBytes < 1.1 * diskBytes)
  }

  test("measured column fractions sum to one and include every column") {
    val fractions = ParquetLayout.columnFractions(ColdStore.layout(dir))
    assert(math.abs(fractions.values.sum - 1.0) < 1e-9)
    assert(fractions.keySet == spark.read.parquet(dir).columns.toSet)
    assert(fractions.values.forall(_ > 0))
  }

  test("model-level pruning on the measured layout matches catalog pruning") {
    val layout = ColdStore.layout(dir)
    val lo = Queries.Q6Profile.keyLo
    val hi = Queries.Q6Profile.keyHi
    val modelSurvivors = layout.count(f => f.prune(lo, hi).nonEmpty)
    val catalogSurvivors = ColdStore.pruneFiles(stats, Queries.Q6DateLo, Queries.Q6DateHi).size
    assert(math.abs(modelSurvivors - catalogSurvivors) <= 1)
  }

  test("the pruned scan's schema is the one Spark infers, for a non-empty and an empty window") {
    val inferred = spark.read.parquet(dir).schema
    for ((lo, hi) <- Seq((Queries.Q6DateLo, Queries.Q6DateHi), ("1890-01-01", "1890-12-31"))) {
      val (df, _) = ColdStore.prunedScan(spark, dir, lo, hi)
      assert(df.schema == inferred, s"window $lo..$hi")
    }
  }

  test("catalog and layout list the same files in the same order") {
    assert(ColdStore.layout(dir).map(_.path) == stats.map(_.path))
    assert(stats.map(_.path) == ColdStore.listFiles(dir))
  }

  test("each file's layout min/max key is its catalog min/max shipdate, normalized") {
    ColdStore.layout(dir).zip(stats).foreach { case (f, s) =>
      assert(f.minKey == ColdStore.normalizeDays(s.minShipdateDays), f.path)
      assert(f.maxKey == ColdStore.normalizeDays(s.maxShipdateDays), f.path)
    }
  }

  test("the concurrent footer read is deterministic: two catalogs are equal") {
    assert(ColdStore.catalog(dir) == ColdStore.catalog(dir))
  }

  test("a second write of the same rows gives the same files: rows and shipdate min/max") {
    val root = java.nio.file.Files.createTempDirectory("coldstore")
    try {
      ColdStore.write(SynthData.lineitem(spark, sf = 0.01), s"$root/lineitem", NFiles)
      def files(st: Seq[FileStat]) = st.map(s => (s.rows, s.minShipdateDays, s.maxShipdateDays))
      assert(files(ColdStore.catalog(s"$root/lineitem")) == files(stats))
    } finally org.apache.commons.io.FileUtils.deleteDirectory(root.toFile)
  }

  test("file i holds the days of sortedTable's key slice i") {
    ParquetLayout.sortedTable(NFiles, totalBytes = 1L << 20).zip(stats).foreach { case (slice, s) =>
      assert(ColdStore.normalizeDays(s.minShipdateDays) >= slice.minKey, s.path)
      assert(ColdStore.normalizeDays(s.maxShipdateDays) < slice.maxKey, s.path)
    }
  }
}
