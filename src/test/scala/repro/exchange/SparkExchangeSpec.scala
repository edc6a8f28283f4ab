package repro.exchange

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}

class SparkExchangeSpec extends SparkSpec {

  private val P = 16

  /** Keys and integral-valued doubles so cross-engine sums are exact. */
  private lazy val data = SynthData.uniformKeys(spark, rows = 5000, nKeys = 200)
    .withColumn("v", (col("v") * 1000).cast("long").cast("double"))
    .cache()

  test("the direct hash exchange places every record on its target partition") {
    assert(SparkExchange.misplacedCount(SparkExchange.direct(data, P), P) == 0)
  }

  test("the two-level grid exchange reaches the same placement as the direct one") {
    assert(SparkExchange.misplacedCount(SparkExchange.twoLevel(data, P), P) == 0)
  }

  private def partitionContents(df: org.apache.spark.sql.DataFrame): Map[Int, Seq[(Long, Double)]] =
    df.rdd.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(pid -> it.map(r => (r.getLong(0), r.getDouble(1))).toSeq.sorted)
    }.collect().toMap

  test("two-level and direct exchanges agree partition by partition") {
    val a = partitionContents(SparkExchange.direct(data, P))
    val b = partitionContents(SparkExchange.twoLevel(data, P))
    assert(a == b)
  }

  test("no records are lost or duplicated by the grid route") {
    val exchanged = SparkExchange.twoLevel(data, P)
    assert(exchanged.count() == data.count())
    val sums = exchanged.agg(sum("v")).head.getDouble(0)
    assert(sums == data.agg(sum("v")).head.getDouble(0))
  }

  test("each round creates at most P*sqrt(P) sender-receiver files (Table 2 bound)") {
    val (r1, r2) = SparkExchange.twoLevelRoundFiles(data, P)
    val bound = P * math.sqrt(P).toLong
    assert(r1 <= bound, s"round 1: $r1 > $bound")
    assert(r2 <= bound, s"round 2: $r2 > $bound")
    assert(r1 + r2 < P.toLong * P, "strictly fewer pairs than the quadratic basic exchange")
  }

  test("shuffle-free aggregation over the exchanged data matches DuckDB") {
    val exchanged = SparkExchange.twoLevel(data, P)
    val aggregated = SparkExchange.localAggregate(spark, exchanged)
      .select(col("k"), round(col("sum_v"), 4) as "sum_v")
    Oracle.assertEquivalent(
      aggregated,
      "SELECT CAST(k AS BIGINT) AS k, round(sum(CAST(v AS DOUBLE)), 4) AS sum_v " +
        "FROM t GROUP BY CAST(k AS BIGINT)",
      "t" -> data)
  }

  test("every key lands in exactly one partition after the exchange") {
    val exchanged = SparkExchange.twoLevel(data, P)
    val keyPartitions = exchanged.rdd.mapPartitionsWithIndex { (pid, it) =>
      it.map(r => (r.getLong(0), pid))
    }.distinct().countByKey()
    assert(keyPartitions.values.forall(_ == 1L))
  }

  test("skewed input (zipf keys) still routes correctly") {
    val skewed = SynthData.zipfKeys(spark, rows = 3000, nKeys = 50)
      .withColumn("v", (col("v") * 100).cast("long").cast("double"))
    val exchanged = SparkExchange.twoLevel(skewed, P)
    assert(SparkExchange.misplacedCount(exchanged, P) == 0)
    assert(exchanged.count() == 3000)
  }

  test("non-square and prime P route exactly as the direct exchange") {
    for (p <- Seq(15, 13)) {
      val exchanged = SparkExchange.twoLevel(data, p)
      assert(SparkExchange.misplacedCount(exchanged, p) == 0, s"P=$p")
      assert(partitionContents(exchanged) == partitionContents(SparkExchange.direct(data, p)), s"P=$p")
    }
  }

  test("targetPartition agrees with the serverless exchange's partitioner") {
    for (k <- Seq(-100L, -1L, 0L, 1L, 7L, 123456789L)) {
      assert(SparkExchange.targetPartition(k, P) == ServerlessExchange.partitionOf(k, P))
    }
  }
}
