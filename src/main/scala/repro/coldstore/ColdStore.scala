package repro.coldstore

import java.util.concurrent.Executors

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.ParquetMetadata
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.datasources.parquet.ParquetReadSupport.SPARK_METADATA_KEY
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, StructType}

import scala.jdk.CollectionConverters._

import repro.SynthData.{ShipdateDays, ShipdateEpochDay}
import repro.scan.{ColumnChunk, ParquetFile, RowGroup}

/** The "cold data on S3" substrate: LINEITEM sorted globally by `l_shipdate`
  * and written into many gzip-compressed Parquet files on the local
  * filesystem (our S3 stand-in), exactly as the paper lays out its SF 1000
  * dataset (Section 5.1). Its catalog reads every footer once, as the
  * paper's scan operator does (Section 4.3.2), and describes each real file
  * as the scan model's `ParquetFile`: measured row counts, `l_shipdate`
  * min/max keys and column-chunk sizes per row group. The pruned scan keeps
  * a file by `ParquetFile.prune`, the rule `ScanModel` applies, and the
  * simulator runs on the same measured files.
  */
object ColdStore {

  /** Normalize a date (days since Unix epoch) to SynthData's [0, 1] shipdate domain. */
  def normalizeDays(days: Int): Double = (days - ShipdateEpochDay) / ShipdateDays.toDouble

  /** An ISO date (yyyy-mm-dd) on the same key domain: the one date -> key
    * map of the pruned scan and the query profiles. It keeps the order of
    * days strictly, so pruning on keys keeps exactly the files pruning on
    * days would.
    */
  def normalizeDate(date: String): Double =
    normalizeDays(java.time.LocalDate.parse(date).toEpochDay.toInt)

  /** Write `lineitem` sorted by `l_shipdate` into `nFiles` gzip Parquet files.
    * File i holds the days of key slice [i/nFiles, (i+1)/nFiles), which is
    * `ParquetLayout.sortedTable`'s file i, so each day stays in one file and
    * the files are a function of the rows and `nFiles` alone. Spark's Parquet
    * writer stores `lineitem`'s DECIMAL(15,2) columns as INT64 decimals.
    */
  def write(lineitem: DataFrame, path: String, nFiles: Int): Unit = {
    require(nFiles >= 1, "need at least one file")
    val file = floor((unix_date(col("l_shipdate")) - ShipdateEpochDay) / ShipdateDays.toDouble * nFiles).cast("int")
    lineitem.repartitionById(nFiles, least(lit(nFiles - 1), greatest(lit(0), file)))
      .sortWithinPartitions("l_shipdate")
      .write.mode("overwrite").option("compression", "gzip").parquet(path)
  }

  /** Data files of a cold store directory, sorted by name. */
  def listFiles(path: String): Vector[String] = {
    val dir = new java.io.File(path)
    require(dir.isDirectory, s"$path is not a directory")
    dir.listFiles((_, n) => n.endsWith(".parquet")).map(_.getAbsolutePath).sorted.toVector
  }

  /** Every file as the scan model's `ParquetFile`, beside its Parquet footer,
    * in `listFiles` order: the one place the cold store opens a footer. The
    * files are opened concurrently, on a pool as wide as the JVM's cores,
    * through one `conf`. A row group whose footer has no `l_shipdate`
    * statistics gets the keys (-inf, +inf), so no range prunes it; the footer
    * bytes are the file's length less its column chunks.
    */
  private def footers(path: String, conf: Configuration): Vector[(ParquetFile, ParquetMetadata)] = {
    val days: PartialFunction[Any, Double] = { case i: java.lang.Integer => normalizeDays(i) }
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try listFiles(path).map { file =>
      pool.submit[(ParquetFile, ParquetMetadata)] { () =>
        val in     = HadoopInputFile.fromPath(new Path(file), conf)
        val reader = ParquetFileReader.open(in)
        try {
          val footer    = reader.getFooter
          val rowGroups = footer.getBlocks.asScala.toVector.map { b =>
            val columns = b.getColumns.asScala.toVector
            val stats   = columns.find(_.getPath.toDotString == "l_shipdate").map(_.getStatistics)
              .filter(st => st != null && st.hasNonNullValue)
            RowGroup(stats.map(_.genericGetMin).collect(days).getOrElse(Double.NegativeInfinity),
              stats.map(_.genericGetMax).collect(days).getOrElse(Double.PositiveInfinity),
              b.getRowCount, columns.map(c => ColumnChunk(c.getPath.toDotString, c.getTotalSize)))
          }
          (ParquetFile(file, rowGroups, in.getLength - rowGroups.map(_.bytes).sum), footer)
        } finally reader.close()
      }
    }.map(_.get) finally pool.shutdown()
  }

  /** The store's files as the scan model's layout, read from their footers alone. */
  def catalog(path: String): Vector[ParquetFile] = footers(path, new Configuration()).map(_._1)

  /** Result of a driver-side pruned scan. */
  final case class PruneStats(totalFiles: Int, survivingFiles: Int) {
    def prunedFraction: Double =
      if (totalFiles == 0) 0.0 else (totalFiles - survivingFiles).toDouble / totalFiles
  }

  /** Read only the files with a row group whose min/max range overlaps
    * [lo, hi] (ISO dates, both inclusive), by `ParquetFile.prune`. The caller
    * still applies the exact predicate — pruning is conservative. The footers
    * read for pruning also give the read schema, so Spark infers none.
    */
  def prunedScan(spark: SparkSession, path: String, lo: String, hi: String)
      : (DataFrame, PruneStats) = {
    val fs        = footers(path, spark.sparkContext.hadoopConfiguration)
    require(fs.nonEmpty, s"$path holds no Parquet files")
    val surviving = fs.map(_._1).filter(_.prune(normalizeDate(lo), normalizeDate(hi)).nonEmpty).map(_.path)
    val json      = fs.head._2.getFileMetaData.getKeyValueMetaData.get(SPARK_METADATA_KEY)
    require(json != null, s"${fs.head._1.path} has no Spark schema in its footer")
    val schema    = DataType.fromJson(json).asInstanceOf[StructType]
    (spark.read.schema(schema).parquet(surviving: _*), PruneStats(fs.size, surviving.size))
  }
}
