package repro.jobs

import java.io.{OutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.coldstore.ColdStore
import repro.report.Tables

/** Shared by the two entry points: `AllTablesJob` prints the model-based
  * artifacts of `Tables.all`, which need no SparkSession; `Fig10Job` can
  * first write a real cold store with Spark and feed its measured layout to
  * the simulation. Both print each artifact under a `### <id>` line, in
  * UTF-8 whatever the host's locale.
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

  /** Each artifact as a `### <id>` line, the table and a blank line, encoded
    * as UTF-8: the format of `src/test/resources/contract/tables.txt`. Each
    * table renders just before it prints.
    */
  def print(artifacts: Seq[(String, () => String)], out: OutputStream): Unit = {
    val w = new PrintStream(out, false, UTF_8)
    artifacts.foreach { case (id, render) => w.println(s"### $id"); w.println(render()); w.println() }
    w.flush()
  }
}

/** `AllTablesJob [id …]` prints the named artifacts of `Tables.all`, or all
  * of them when no id is given.
  */
object AllTablesJob {

  /** The artifacts of `all` named by `ids`, in `all`'s order; every one when
    * `ids` is empty. An unknown id fails with the list of valid ones. Renders
    * nothing.
    */
  def select(all: Seq[(String, () => String)], ids: Seq[String]): Seq[(String, () => String)] = {
    val valid   = all.map(_._1)
    val unknown = ids.filterNot(valid.contains)
    require(unknown.isEmpty,
      s"unknown artifact ${unknown.mkString(", ")}; valid ids: ${valid.mkString(", ")}")
    if (ids.isEmpty) all else all.filter { case (id, _) => ids.contains(id) }
  }

  def main(args: Array[String]): Unit =
    JobSupport.print(select(Tables.all, args.toSeq), System.out)
}

/** `Fig10Job [sf]` prints Fig 10. With a scale factor it first writes a real
  * cold store at that SF and sweeps with its measured column fractions; with
  * none it uses the synthetic SF 1000 layout, as `AllTablesJob fig10` does.
  */
object Fig10Job {
  def main(args: Array[String]): Unit = {
    val fractions = args.headOption.map { sf =>
      val spark = JobSupport.localSpark("fig10")
      try JobSupport.measuredFractions(spark, sf.toDouble) finally spark.stop()
    }.getOrElse(repro.scan.ParquetLayout.LineitemColumnFractions)
    JobSupport.print(Seq("fig10" -> (() => Tables.renderFig10(Tables.fig10Rows(
      repro.scan.ParquetLayout.lineitemSf1000(fractions), fractions)))), System.out)
  }
}
