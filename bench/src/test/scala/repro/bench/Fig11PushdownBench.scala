package repro.bench

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.coldstore.ColdStore
import repro.core.Queries
import repro.report.Report
import repro.sched.TaskMetrics

/** Fig 11 — per-worker processing-time distribution under selection
  * push-down, over *real* Spark tasks on the SF 0.1 cold store, one task per
  * file, where Parquet row-group min/max pushdown plays the role of the
  * workers' footer pruning — the executor-model analogue of the paper's
  * serverless workers. The paper-scale simulation (320 workers, SF 1000) is
  * `AllTablesJob fig11`, checked in `LambadaSimSpec` and `TablesSpec`.
  */
class Fig11PushdownBench extends SparkSpec {

  test("Fig 11 (real Spark tasks, SF 0.1): pushdown creates a cheap task class") {
    val dir = BenchData.dir(this)
    // One task per cold-store file, mirroring the paper's one-worker-per-file.
    spark.conf.set("spark.sql.files.maxPartitionBytes", (1024 * 1024).toString)
    spark.conf.set("spark.sql.files.openCostInBytes", (128 * 1024 * 1024).toString)
    try {
      // The scan stage is the one with the most tasks (one per file split).
      def scanTasks(filter: org.apache.spark.sql.Column) = {
        val all = TaskMetrics.collect(spark) {
          spark.read.parquet(dir).filter(filter).agg(sum("l_extendedprice")).collect()
        }
        all.groupBy(_.stageId).maxBy(_._2.size)._2
      }

      val q1Tasks = scanTasks(col("l_shipdate") <= lit(Queries.Q1CutoffDate).cast("date"))
      val q6Tasks = scanTasks(
        col("l_shipdate") >= lit(Queries.Q6DateLo).cast("date") &&
        col("l_shipdate") < lit(Queries.Q6DateHi).cast("date"))

      val q1Records = q1Tasks.map(_.recordsRead).sum.toDouble
      val q6Records = q6Tasks.map(_.recordsRead).sum.toDouble
      // Pruned-file tasks: row-group min/max pushdown leaves zero records —
      // the executor-model twin of the paper's 100-200 ms worker class.
      val cheap = q6Tasks.count(_.recordsRead == 0)

      println(Report.table("Fig 11 (real Spark tasks over the SF 0.1 cold store)",
        Seq("query", "scan tasks", "records read", "zero-record (pruned) task share"),
        Seq(
          Seq("Q1", q1Tasks.size.toString, f"$q1Records%.0f",
            Report.pct(q1Tasks.count(_.recordsRead == 0).toDouble / q1Tasks.size)),
          Seq("Q6", q6Tasks.size.toString, f"$q6Records%.0f",
            Report.pct(cheap.toDouble / q6Tasks.size)),
        )))

      assert(q1Tasks.nonEmpty && q6Tasks.nonEmpty)
      assert(q6Records < 0.5 * q1Records,
        "row-group pushdown lets Q6's tasks skip most of the data")
      assert(cheap.toDouble / q6Tasks.size > 0.5,
        "most Q6 tasks are metadata-only, like the paper's pruned workers")
    } finally {
      spark.conf.unset("spark.sql.files.maxPartitionBytes")
      spark.conf.unset("spark.sql.files.openCostInBytes")
    }
  }

  test("driver-side file pruning removes whole files before any task launches") {
    val dir = BenchData.dir(this)
    val stats = ColdStore.catalog(dir)
    val q6Survivors = ColdStore.pruneFiles(stats, Queries.Q6DateLo, Queries.Q6DateHi)
    val fraction = (stats.size - q6Survivors.size).toDouble / stats.size
    println(f"Q6 file-level pruned fraction on the real cold store: ${fraction * 100}%.1f%% (paper ~80%%)")
    assert(fraction > 0.7 && fraction <= 0.95)
  }
}
