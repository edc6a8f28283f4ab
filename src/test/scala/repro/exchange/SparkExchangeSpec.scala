package repro.exchange

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}

class SparkExchangeSpec extends SparkSpec {

  private val P = 16

  /** Keys and integral-valued doubles so cross-engine sums are exact. */
  private lazy val data = SynthData.uniformKeys(spark, rows = 5000, nKeys = 200)
    .withColumn("v", (col("v") * 1000).cast("long").cast("double"))
    .cache()

  /** One exchange per route at P, shared by the tests below. Each test reads
    * it through `.rdd`, which a DataFrame computes once, so every action
    * reuses its shuffle outputs; a DataFrame action would route again.
    */
  private lazy val direct   = SparkExchange.direct(data, P)
  private lazy val twoLevel = SparkExchange.twoLevel(data, P)

  test("the direct hash exchange places every record on its target partition") {
    assert(SparkExchange.misplacedCount(direct, P) == 0)
  }

  test("the two-level grid exchange reaches the same placement as the direct one") {
    assert(SparkExchange.misplacedCount(twoLevel, P) == 0)
  }

  private def partitionContents(df: org.apache.spark.sql.DataFrame): Map[Int, Seq[(Long, Double)]] =
    df.rdd.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(pid -> it.map(r => (r.getLong(0), r.getDouble(1))).toSeq.sorted)
    }.collect().toMap

  test("two-level and direct exchanges agree partition by partition") {
    assert(partitionContents(direct) == partitionContents(twoLevel))
  }

  test("no records are lost or duplicated by the grid route") {
    assert(twoLevel.rdd.count() == data.count())
    val sums = twoLevel.rdd.map(_.getAs[Double]("v")).sum()
    assert(sums == data.agg(sum("v")).head.getDouble(0))
  }

  test("each round creates at most P*sqrt(P) sender-receiver files (Table 2 bound)") {
    val (r1, r2) = SparkExchange.twoLevelRoundFiles(data, P)
    val bound = P * math.sqrt(P).toLong
    assert(r1 <= bound, s"round 1: $r1 > $bound")
    assert(r2 <= bound, s"round 2: $r2 > $bound")
    assert(r1 + r2 < P.toLong * P, "strictly fewer pairs than the quadratic basic exchange")
  }

  /** Distinct shuffles in an RDD's lineage. */
  private def shuffles(rdd: RDD[_]): Set[Int] =
    rdd.dependencies.flatMap {
      case s: ShuffleDependency[_, _, _] => shuffles(s.rdd) + s.shuffleId
      case d                             => shuffles(d.rdd)
    }.toSet

  test("shuffle-free aggregation over the exchanged data matches DuckDB") {
    val local = SparkExchange.localAggregate(spark, twoLevel)
    // One shuffle per round, none before round 1 and none added by the aggregate.
    assert(shuffles(direct.rdd).size == 1)
    assert(shuffles(twoLevel.rdd).size == 2)
    assert(shuffles(local.rdd) == shuffles(twoLevel.rdd))
    val aggregated = local.select(col("k"), round(col("sum_v"), 4) as "sum_v")
    Oracle.assertEquivalent(
      aggregated,
      "SELECT CAST(k AS BIGINT) AS k, round(sum(CAST(v AS DOUBLE)), 4) AS sum_v " +
        "FROM t GROUP BY CAST(k AS BIGINT)",
      "t" -> data)
  }

  test("every key lands in exactly one partition after the exchange") {
    val keyPartitions = twoLevel.rdd.mapPartitionsWithIndex { (pid, it) =>
      it.map(r => (r.getLong(0), pid))
    }.distinct().countByKey()
    assert(keyPartitions.values.forall(_ == 1L))
  }

  test("skewed input (zipf keys) still routes correctly") {
    val skewed = SynthData.zipfKeys(spark, rows = 3000, nKeys = 50)
      .withColumn("v", (col("v") * 100).cast("long").cast("double"))
    val exchanged = SparkExchange.twoLevel(skewed, P)
    assert(SparkExchange.misplacedCount(exchanged, P) == 0)
    assert(exchanged.rdd.count() == 3000)
  }

  /** Each partition's rows as placed on the driver by `targetPartition`:
    * the reference, independent of every Spark route.
    */
  private def hashPlacement(p: Int): Map[Int, Seq[(Long, Double)]] = {
    val byTarget = inputRows.groupBy { case (k, _) => SparkExchange.targetPartition(k, p) }
    (0 until p).map(pid => pid -> byTarget.getOrElse(pid, Seq.empty).sorted).toMap
  }
  private lazy val inputRows = data.collect().toSeq.map(r => (r.getLong(0), r.getDouble(1)))

  test("non-square and prime P route exactly as the direct exchange") {
    for (p <- Seq(13, 15, 16, 64); k <- 1 to 3) {
      val (got, want) = (partitionContents(SparkExchange.exchange(data, p, k)), hashPlacement(p))
      val wrong = (0 until p).filter(pid => got.get(pid) != want.get(pid))
      assert(got.size == p && wrong.isEmpty, s"P=$p, k=$k: partitions $wrong hold other rows")
      val files = SparkExchange.roundFiles(data, p, k)
      val grid  = Grid(p, k)
      assert(files.size == k, s"P=$p, k=$k")
      files.zipWithIndex.foreach { case (n, r) =>
        assert(n <= p.toLong * grid.radices(r), s"P=$p, k=$k, round ${r + 1}: $n files")
      }
      // Pinned at P = 16, every round reaches its bound: at k = 1 all 16 * 16
      // (sender, target) pairs, which senders read off the input's partitions
      // (4 on 4 cores) could not reach, and 16 * 4 in both rounds of the 4 x 4 grid.
      if (p == 16 && k == 1) assert(files == Seq(256L))
      if (p == 16 && k == 2) assert(files == Seq(64L, 64L))
    }
  }

  test("the senders, and so every round's pairs, do not depend on the input's partitioning") {
    val reparted = data.repartition(3)
    assert(SparkExchange.roundFiles(reparted, P, 2) == SparkExchange.roundFiles(data, P, 2))
    assert(partitionContents(SparkExchange.exchange(reparted, P, 2)) == partitionContents(twoLevel))
  }

  test("targetPartition agrees with the serverless exchange's partitioner") {
    for (k <- Seq(-100L, -1L, 0L, 1L, 7L, 123456789L)) {
      assert(SparkExchange.targetPartition(k, P) == ServerlessExchange.partitionOf(k, P))
    }
  }
}
