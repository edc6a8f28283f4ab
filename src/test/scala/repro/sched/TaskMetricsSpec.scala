package repro.sched

import repro.SparkSpec
import repro.ColdStoreFixture.dir
import repro.coldstore.ColdStore
import repro.coldstore.ColdStore.normalizeDate
import repro.core.Queries
import repro.report.Tables

class TaskMetricsSpec extends SparkSpec {

  test("collect returns a record per executed task with positive durations") {
    val records = TaskMetrics.collect(spark) {
      spark.read.parquet(dir).count()
    }
    assert(records.nonEmpty)
    assert(records.forall(_.seconds >= 0))
    assert(records.map(_.taskId).distinct.size == records.size)
  }

  test("scan tasks report input bytes read") {
    val records = TaskMetrics.collect(spark) {
      spark.read.parquet(dir).agg(org.apache.spark.sql.functions.sum("l_quantity")).collect()
    }
    assert(records.map(_.bytesRead).sum > 0)
  }

  test("the listener detaches after collection (no records from later jobs)") {
    val first = TaskMetrics.collect(spark) { spark.range(100).count() }
    spark.range(1000).count() // runs outside any collector
    assert(first.nonEmpty)
  }

  test("collect returns exactly the action's tasks, without the drain marker's") {
    val records = TaskMetrics.collect(spark) {
      spark.sparkContext.parallelize(1 to 100, 3).count()
    }
    assert(records.size == 3)
    assert(records.map(_.stageId).distinct.size == 1)
  }

  test("Q1's map stage writes exactly the shuffle bytes its result stage reads") {
    val records = TaskMetrics.collect(spark) {
      Queries.q1(spark.read.parquet(dir)).collect()
    }
    val stages = records.groupBy(_.stageId).values.toSeq
    val Seq(map)    = stages.filter(_.exists(_.shuffleWriteBytes > 0))
    val Seq(result) = stages.filter(_.exists(_.shuffleReadBytes > 0))
    assert(map.map(_.shuffleWriteBytes).sum == result.map(_.shuffleReadBytes).sum)
    assert(map.map(_.shuffleWriteRecords).sum == result.map(_.shuffleReadRecords).sum)
    assert(map.map(_.cpuSeconds).sum > 0, "the scan runs on a CPU")
  }

  test("Fig 11 (real Spark tasks): pushdown leaves most of Q6's scan tasks metadata-only") {
    val Seq(q1, q6) = Tables.fig11TaskRows(spark, dir)
    assert(q1.tasks.nonEmpty && q6.tasks.nonEmpty)
    assert(q6.recordsRead < 0.5 * q1.recordsRead,
      "row-group pushdown lets Q6's tasks skip most of the data")
    assert(q6.zeroRecordShare > 0.5,
      "most Q6 tasks read no record, like the paper's pruned workers")
    // The catalog predicts both scans exactly: a task reads no record iff its
    // file has no row group in the query's days, and the others read their
    // overlapping row groups whole. Q6's upper bound is exclusive.
    val files = ColdStore.catalog(dir)
    for ((row, lo, hi) <- Seq((q1, Double.NegativeInfinity, normalizeDate(Queries.Q1CutoffDate)),
                              (q6, normalizeDate(Queries.Q6DateLo), normalizeDate("1994-12-31")))) {
      val kept = files.map(_.prune(lo, hi))
      assert(row.tasks.count(_.recordsRead == 0) == kept.count(_.isEmpty), row.query)
      assert(row.recordsRead == kept.flatten.map(_.rows).sum, row.query)
    }
  }
}
