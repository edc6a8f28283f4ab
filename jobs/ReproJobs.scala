package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.coldstore.ColdStore
import repro.core.Queries
import repro.report.Tables

/** spark-submit entrypoints, one per reproduced table/figure.
  *
  * The purely model-based artifacts (Tables 1-3, Figs 1/4/5/6/7/9/13) need
  * no SparkSession. The data-dependent artifacts (Figs 10/11/12) optionally
  * take a scale factor argument: they then generate a real cold store with
  * Spark, measure its Parquet layout (column-chunk sizes, min/max stats) and
  * feed the measured layout into the simulation; with no argument they use
  * the synthetic SF 1000 layout.
  */
object JobSupport {

  def localSpark(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Write a cold store at `sf` and return measured column fractions. */
  def measuredFractions(spark: SparkSession, sf: Double): Map[String, Double] = {
    val dir = java.nio.file.Files.createTempDirectory("coldstore").toString + "/lineitem"
    ColdStore.write(SynthData.lineitem(spark, sf), dir, nFiles = 32)
    ColdStore.columnFractions(ColdStore.layout(dir))
  }
}

object Table1Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderTable1); println(); println(Tables.renderFig5)
  }
}

object Table2Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderTable2(64)); println(); println(Tables.renderTable2(729))
    println(); println(Tables.renderFig9)
  }
}

object Table3Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderTable3); println(); println(Tables.renderFig13)
  }
}

object Fig1Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderFig1a); println(); println(Tables.renderFig1b)
  }
}

object Fig10Job {
  def main(args: Array[String]): Unit = {
    val fractions = args.headOption.map { sf =>
      val spark = JobSupport.localSpark("fig10")
      try JobSupport.measuredFractions(spark, sf.toDouble) finally spark.stop()
    }.getOrElse(repro.scan.ParquetLayout.LineitemColumnFractions)
    println(Tables.renderFig10(Tables.fig10Rows(
      repro.scan.ParquetLayout.lineitemSf1000(fractions), fractions)))
  }
}

object Fig11Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderFig11(Seq(
      Tables.fig11Data(Queries.Q1Profile), Tables.fig11Data(Queries.Q6Profile))))
  }
}

object Fig12Job {
  def main(args: Array[String]): Unit = {
    println(Tables.renderFig12(Tables.fig12Rows()))
  }
}

/** Prints every model-based artifact in one go, each under a `### <id>`
  * line: the format of `src/test/resources/contract/tables.txt`. UTF-8
  * whatever the host's locale, so a title's dash survives.
  */
object AllTablesJob {
  def main(args: Array[String]): Unit = {
    val out = new java.io.PrintStream(new java.io.FileOutputStream(java.io.FileDescriptor.out),
      true, "UTF-8")
    Tables.all.foreach { case (id, table) =>
      out.println(s"### $id"); out.println(table); out.println()
    }
  }
}
