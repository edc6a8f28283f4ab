package repro.sched

import repro.{ColdStoreFixture, SparkSpec}

class TaskMetricsSpec extends SparkSpec {

  private lazy val dir: String = ColdStoreFixture.dir(this)

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
}
