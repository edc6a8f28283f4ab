package repro.coldstore

import java.util.concurrent.Executors

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.{BlockMetaData, ParquetMetadata}
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.datasources.parquet.ParquetReadSupport.SPARK_METADATA_KEY
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, StructType}

import scala.jdk.CollectionConverters._

import repro.scan.{ColumnChunk, ParquetFile, RowGroup}

/** Per-file statistics of the cold store: the min/max index the paper's scan
  * operator reads from the Parquet footer (Section 4.3.2), at file
  * granularity for driver-side pruning.
  */
final case class FileStat(
    path: String,
    bytes: Long,
    rows: Long,
    minShipdateDays: Int,
    maxShipdateDays: Int,
)

/** The "cold data on S3" substrate: LINEITEM sorted globally by `l_shipdate`
  * and written into many gzip-compressed Parquet files on the local
  * filesystem (our S3 stand-in), exactly as the paper lays out its SF 1000
  * dataset (Section 5.1). Provides the footer catalog, min/max file pruning,
  * and a bridge that turns the *real* files into the scan model's
  * `ParquetFile` layout so the simulator runs on measured row-group and
  * column-chunk sizes.
  */
object ColdStore {

  /** SynthData's shipdate domain: 1992-01-01 + [0, 2557) days. */
  private val EpochDay: Long = java.time.LocalDate.parse("1992-01-01").toEpochDay
  private val SpanDays: Double = 2557.0

  /** Normalize a date (days since Unix epoch) to the [0, 1] key domain. */
  def normalizeDays(days: Int): Double = (days - EpochDay) / SpanDays

  /** Write `lineitem` sorted by `l_shipdate` into `nFiles` gzip Parquet files. */
  def write(lineitem: DataFrame, path: String, nFiles: Int): Unit = {
    require(nFiles >= 1, "need at least one file")
    lineitem
      .repartitionByRange(nFiles, col("l_shipdate"))
      .sortWithinPartitions("l_shipdate")
      .write
      .mode("overwrite")
      .option("compression", "gzip")
      .parquet(path)
  }

  /** Data files of a cold store directory, sorted by name. */
  def listFiles(path: String): Vector[String] = {
    val dir = new java.io.File(path)
    require(dir.isDirectory, s"$path is not a directory")
    dir.listFiles((_, n) => n.endsWith(".parquet")).map(_.getAbsolutePath).sorted.toVector
  }

  /** Every file's path, size and Parquet footer, in `listFiles` order: the
    * one place the cold store opens a footer. The files are opened
    * concurrently, on a pool as wide as the JVM's cores, through one `conf`.
    */
  private def footers(path: String, conf: Configuration): Vector[(String, Long, ParquetMetadata)] = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try listFiles(path).map { file =>
      pool.submit[(String, Long, ParquetMetadata)] { () =>
        val in     = HadoopInputFile.fromPath(new Path(file), conf)
        val reader = ParquetFileReader.open(in)
        try (file, in.getLength, reader.getFooter) finally reader.close()
      }
    }.map(_.get) finally pool.shutdown()
  }

  /** A row group's `l_shipdate` min and max in days, from its footer statistics. */
  private def shipdateDays(block: BlockMetaData): (Option[Int], Option[Int]) = {
    val stats = block.getColumns.asScala.find(_.getPath.toDotString == "l_shipdate").map(_.getStatistics)
    val days: PartialFunction[Any, Int] = { case i: java.lang.Integer => i.intValue }
    (stats.map(_.genericGetMin).collect(days), stats.map(_.genericGetMax).collect(days))
  }

  private def fileStat(file: String, bytes: Long, footer: ParquetMetadata): FileStat = {
    val blocks       = footer.getBlocks.asScala.toVector
    val (mins, maxs) = blocks.map(shipdateDays).unzip
    FileStat(file, bytes, blocks.map(_.getRowCount).sum,
      mins.flatten.minOption.getOrElse(Int.MinValue), maxs.flatten.maxOption.getOrElse(Int.MaxValue))
  }

  /** Build the file-stats catalog by reading only Parquet footers. */
  def catalog(path: String): Vector[FileStat] =
    footers(path, new Configuration()).map((fileStat _).tupled)

  /** Files that may contain shipdates in [lo, hi] (ISO dates, conservative). */
  def pruneFiles(stats: Seq[FileStat], lo: String, hi: String): Seq[FileStat] = {
    val loD = java.time.LocalDate.parse(lo).toEpochDay
    val hiD = java.time.LocalDate.parse(hi).toEpochDay
    stats.filter(s => s.maxShipdateDays >= loD && s.minShipdateDays <= hiD)
  }

  /** Result of a driver-side pruned scan. */
  final case class PruneStats(totalFiles: Int, survivingFiles: Int) {
    def prunedFraction: Double =
      if (totalFiles == 0) 0.0 else (totalFiles - survivingFiles).toDouble / totalFiles
  }

  /** Read only the files whose min/max range overlaps [lo, hi]. The caller
    * still applies the exact predicate — pruning is conservative. The footers
    * read for pruning also give the read schema, so Spark infers none.
    */
  def prunedScan(spark: SparkSession, path: String, lo: String, hi: String)
      : (DataFrame, PruneStats) = {
    val fs        = footers(path, spark.sparkContext.hadoopConfiguration)
    require(fs.nonEmpty, s"$path holds no Parquet files")
    val stats     = fs.map((fileStat _).tupled)
    val surviving = pruneFiles(stats, lo, hi).map(_.path)
    val json      = fs.head._3.getFileMetaData.getKeyValueMetaData.get(SPARK_METADATA_KEY)
    require(json != null, s"${fs.head._1} has no Spark schema in its footer")
    val schema    = DataType.fromJson(json).asInstanceOf[StructType]
    (spark.read.schema(schema).parquet(surviving: _*), PruneStats(stats.size, surviving.size))
  }

  /** Bridge: the real files as the scan model's layout, with *measured*
    * row-group boundaries, min/max keys, and compressed column-chunk sizes.
    */
  def layout(path: String): Vector[ParquetFile] =
    footers(path, new Configuration()).map { case (file, _, footer) =>
      ParquetFile(file, footer.getBlocks.asScala.toVector.map { b =>
        val (lo, hi) = shipdateDays(b)
        RowGroup(lo.fold(0.0)(normalizeDays), hi.fold(1.0)(normalizeDays),
          b.getColumns.asScala.toVector.map(c => ColumnChunk(c.getPath.toDotString, c.getTotalSize)))
      })
    }

  /** Measured per-column fraction of compressed bytes across a layout. */
  def columnFractions(layout: Seq[ParquetFile]): Map[String, Double] = {
    val byCol = layout.flatMap(_.rowGroups).flatMap(_.chunks)
      .groupMapReduce(_.column)(_.bytes)(_ + _)
    val total = byCol.values.sum.toDouble
    require(total > 0, "empty layout")
    byCol.map { case (c, b) => c -> b / total }
  }
}
