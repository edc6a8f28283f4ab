package repro.jobs

import java.io.{OutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.SparkSession

import repro.{LocalSpark, SynthData}
import repro.coldstore.ColdStore
import repro.report.Tables
import repro.scan.ParquetLayout

/** Shared by the two entry points: `AllTablesJob` prints the model-based
  * artifacts of `Tables.all`, which need no SparkSession; `ColdStoreJob`
  * writes a real cold store with Spark and prints the artifacts measured on
  * it. Both print each artifact under a `### <id>` line, in UTF-8 whatever
  * the host's locale.
  */
object JobSupport {

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

/** `ColdStoreJob [sf]` writes LINEITEM at scale factor `sf` (default 0.1)
  * as a 32-file cold store in a temporary directory, prints the artifacts
  * measured on it, and deletes it.
  */
object ColdStoreJob {

  /** The artifacts measured on the cold store at `dir`: Fig 10 swept over the
    * SF 1000 layout built from its column fractions, and Fig 11's real scan
    * tasks. Renders nothing.
    */
  def artifacts(spark: SparkSession, dir: String): Seq[(String, () => String)] = Seq(
    "fig10-measured" -> (() => Tables.renderFig10(
      ParquetLayout.lineitemSf1000(ParquetLayout.columnFractions(ColdStore.catalog(dir))))),
    "fig11-tasks" -> (() => Tables.renderFig11Tasks(Tables.fig11TaskRows(spark, dir))),
  )

  def main(args: Array[String]): Unit = {
    val sf   = args.headOption.fold(0.1)(_.toDouble)
    val root = Files.createTempDirectory("coldstore")
    try {
      val spark = LocalSpark.session("coldstore")
      try {
        val dir = s"$root/lineitem"
        ColdStore.write(SynthData.lineitem(spark, sf), dir, nFiles = 32)
        JobSupport.print(artifacts(spark, dir), System.out)
      } finally spark.stop()
    } finally FileUtils.deleteDirectory(root.toFile)
  }
}
