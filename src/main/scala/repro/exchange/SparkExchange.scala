package repro.exchange

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

/** The paper's k-level exchange (Algorithms 1-2) executed as *real* data
  * movement inside Spark. The contribution is a physical exchange operator,
  * so each round is one `Dataset.repartitionById`: a shuffle that sends every
  * row to the partition id it computes for itself. On the k-level [[Grid]]
  * of P, round r routes each record within its group of s_r workers (the
  * grid's radices) to fix dimension r - 1 of its target partition. After k
  * rounds every record resides in exactly the partition a direct hash
  * exchange would have chosen; the direct exchange is the k = 1 case.
  *
  * As in the algorithm, round 1 starts from the rows where they lie; no
  * shuffle redistributes the input first. A row's round-1 sender is
  * `pmod(xxhash64(<every input column>), P)`: deterministic, so a retried
  * stage routes the same way; blind to the input's partitioning; and
  * uncorrelated with the target, so round 1 reaches every member of each
  * group. Hashing every column, not only `k`, spreads a hot key's rows over
  * many senders. Later rounds' senders are the partitions rows sit in.
  */
object SparkExchange {

  /** Target partition of a key: the hash partitioning every route agrees on. */
  def targetPartition(key: Long, p: Int): Int = ServerlessExchange.partitionOf(key, p)

  /** Round 1's sender of each row of `df` (see above). */
  private def sender(df: DataFrame, p: Int): Column =
    pmod(xxhash64(df.columns.map(col): _*), lit(p.toLong)).cast("int")

  /** Per round of the `levels`-level grid, the partition a record moves to:
    * its own (round 1: its sender, `from`), with that round's coordinate
    * replaced by its target's.
    */
  private def rounds(p: Int, levels: Int, from: Column): Seq[Column] = {
    val grid = Grid(p, levels)
    (0 until levels).map { d =>
      val to = udf((pid: Int, key: Long) => grid.withCoord(pid, d, grid.coord(targetPartition(key, p), d)))
      to(if (d == 0) from else spark_partition_id(), col("k"))
    }
  }

  /** The `levels`-level grid exchange, at any P. */
  def exchange(df: DataFrame, p: Int, levels: Int): DataFrame =
    rounds(p, levels, sender(df, p)).foldLeft(df)((in, c) => in.repartitionById(p, c))

  /** The one- and two-level cases, kept for the benchmark's callers. */
  def direct(df: DataFrame, p: Int): DataFrame   = exchange(df, p, 1)
  def twoLevel(df: DataFrame, p: Int): DataFrame = exchange(df, p, 2)

  /** Number of records off their target partition — 0 iff every record
    * already sits on its target (used to assert exchange correctness).
    * It counts over `df.rdd`, which a `DataFrame` computes once: callers
    * that then inspect the same exchange do not route its rows again.
    */
  def misplacedCount(df: DataFrame, p: Int): Long = {
    val keyIdx = df.schema.fieldIndex("k")
    df.rdd.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(it.count(row => targetPartition(row.getLong(keyIdx), p) != pid).toLong)
    }.sum().toLong
  }

  /** Per round of the `levels`-level exchange, the number of (sender
    * partition, receiver) pairs with data — the analogue of the files
    * (requests) a serverless exchange round creates, bounded by P * s_r
    * (Table 2). One routed pass: each row records its partition before
    * round d in `_at$d` (`_at0` is its sender, which round 1 routes on), so
    * round d's pairs are its d-th and (d+1)-th partitions. The last round's
    * receivers are computed, not routed.
    */
  def roundFiles(df: DataFrame, p: Int, levels: Int): Seq[Long] = {
    val rs     = rounds(p, levels, col("_at0"))
    val routed = (1 until levels).foldLeft(df.withColumn("_at0", sender(df, p))) { (in, d) =>
      in.repartitionById(p, rs(d - 1)).withColumn(s"_at$d", spark_partition_id())
    }
    val at    = (0 until levels).map(d => col(s"_at$d")) :+ rs.last
    val pairs = routed.select(at: _*).rdd.mapPartitions { it =>
      it.flatMap(row => (0 until levels).map(d => (d, row.getInt(d), row.getInt(d + 1)))).toSet.iterator
    }.collect().toSet
    (0 until levels).map(d => pairs.count(_._1 == d).toLong)
  }

  /** `roundFiles` at two levels as a pair, kept for the benchmark's caller. */
  def twoLevelRoundFiles(df: DataFrame, p: Int): (Long, Long) =
    roundFiles(df, p, 2) match { case Seq(r1, r2) => (r1, r2) }

  /** Aggregate `sum(v) group by k` *without any further shuffle*, relying on
    * the exchange having co-located all rows of a key: each partition
    * aggregates locally and the driver concatenates. Wrong placement would
    * surface as duplicate keys / wrong sums versus the oracle.
    */
  def localAggregate(spark: SparkSession, exchanged: DataFrame): DataFrame = {
    val keyIdx = exchanged.schema.fieldIndex("k")
    val valIdx = exchanged.schema.fieldIndex("v")
    val rows = exchanged.rdd.mapPartitions { it =>
      it.foldLeft(Map.empty[Long, Double]) { (acc, row) =>
        val k = row.getLong(keyIdx)
        acc.updated(k, acc.getOrElse(k, 0.0) + row.getDouble(valIdx))
      }.iterator.map { case (k, s) => Row(k, s) }
    }
    import org.apache.spark.sql.types._
    spark.createDataFrame(rows,
      StructType(Seq(StructField("k", LongType), StructField("sum_v", DoubleType))))
  }
}
