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
  */
object SparkExchange {

  /** Target partition of a key: the hash partitioning every route agrees on. */
  def targetPartition(key: Long, p: Int): Int = ServerlessExchange.partitionOf(key, p)

  /** Per round of the `levels`-level grid, the partition a record moves to:
    * its own, with that round's coordinate replaced by its target's.
    */
  private def rounds(p: Int, levels: Int): Seq[Column] = {
    val grid = Grid(p, levels)
    (0 until levels).map { d =>
      val to = udf((pid: Int, key: Long) => grid.withCoord(pid, d, grid.coord(targetPartition(key, p), d)))
      to(spark_partition_id(), col("k"))
    }
  }

  /** The `levels`-level grid exchange, at any P. */
  def exchange(df: DataFrame, p: Int, levels: Int): DataFrame =
    rounds(p, levels).foldLeft(df.repartition(p))((in, c) => in.repartitionById(p, c))

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
    * (Table 2). One routed pass: each row carries its partition before every
    * round, so round d's pairs are its d-th and (d+1)-th partitions. The
    * last round's receivers are computed, not routed.
    */
  def roundFiles(df: DataFrame, p: Int, levels: Int): Seq[Long] = {
    val rs     = rounds(p, levels)
    val routed = rs.init.zipWithIndex.foldLeft(df.repartition(p)) { case (in, (c, d)) =>
      in.withColumn(s"_at$d", spark_partition_id()).repartitionById(p, c)
    }
    val at    = (0 until levels - 1).map(d => col(s"_at$d")) :+ spark_partition_id() :+ rs.last
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
