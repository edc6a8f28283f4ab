package repro.exchange

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

/** Routes each element to the partition equal to its precomputed id. */
final class IdPartitioner(val numPartitions: Int) extends Partitioner {
  require(numPartitions >= 1)
  override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  override def equals(other: Any): Boolean = other match {
    case o: IdPartitioner => o.numPartitions == numPartitions
    case _                => false
  }
  override def hashCode(): Int = numPartitions
}

/** The paper's TwoLevelExchange (Algorithm 2) executed as *real* data
  * movement inside Spark. The contribution is a physical exchange operator,
  * so this sits at the physical (RDD partitioning) layer: on the two-level
  * [[Grid]] of P, round 1 routes each record within its grid column to fix
  * the first coordinate of its target partition, round 2 within its grid row
  * to fix the second — after two rounds every record resides in exactly the
  * partition a direct hash exchange would have chosen, while round i only
  * communicates within groups of s_i workers (the grid's radices).
  */
object SparkExchange {

  /** Target partition of a key: the hash partitioning both routes agree on. */
  def targetPartition(key: Long, p: Int): Int = ServerlessExchange.partitionOf(key, p)

  private def route(df: DataFrame, p: Int)(pidOf: (Int, Long) => Int): DataFrame = {
    val spark  = df.sparkSession
    val schema = df.schema
    val keyIdx = schema.fieldIndex("k")
    val routed = df.rdd
      .mapPartitionsWithIndex { (pid, it) =>
        it.map(row => (pidOf(pid, row.getLong(keyIdx)), row))
      }
      .partitionBy(new IdPartitioner(p))
      .values
    spark.createDataFrame(routed, schema)
  }

  /** Direct (single-round) hash exchange: the correctness reference. */
  def direct(df: DataFrame, p: Int): DataFrame =
    route(df.repartition(p), p)((_, key) => targetPartition(key, p))

  /** Per round of the two-level grid, the partition a record moves to: its
    * own, with that round's coordinate replaced by its target's.
    */
  private def gridRounds(p: Int): Seq[(Int, Long) => Int] = {
    val grid = Grid(p, 2)
    Seq(0, 1).map(d => (pid: Int, key: Long) =>
      grid.withCoord(pid, d, grid.coord(targetPartition(key, p), d)))
  }

  /** Two-level grid exchange, at any P. */
  def twoLevel(df: DataFrame, p: Int): DataFrame =
    gridRounds(p).foldLeft(df.repartition(p))((routed, pidOf) => route(routed, p)(pidOf))

  /** Per-partition histogram of target partitions — empty iff every record
    * already sits on its target (used to assert exchange correctness).
    */
  def misplacedCount(df: DataFrame, p: Int): Long = {
    val keyIdx = df.schema.fieldIndex("k")
    df.rdd.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(it.count(row => targetPartition(row.getLong(keyIdx), p) != pid).toLong)
    }.sum().toLong
  }

  /** Number of (sender partition, receiver) pairs with data in one routing
    * round — the analogue of the files (requests) a serverless exchange
    * round creates. For the two-level exchange round i's count is bounded
    * by P * s_i (Table 2).
    */
  def roundFileCount(df: DataFrame, p: Int)(pidOf: (Int, Long) => Int): Long = {
    val keyIdx = df.schema.fieldIndex("k")
    df.rdd.mapPartitionsWithIndex { (pid, it) =>
      Iterator.single(it.map(row => pidOf(pid, row.getLong(keyIdx))).toSet.size.toLong)
    }.sum().toLong
  }

  /** File counts of the two rounds of the grid route (after a repartition
    * to p partitions), for comparison against the Table 2 bounds.
    */
  def twoLevelRoundFiles(df: DataFrame, p: Int): (Long, Long) = {
    val Seq(round1, round2) = gridRounds(p)
    val base = df.repartition(p)
    (roundFileCount(base, p)(round1), roundFileCount(route(base, p)(round1), p)(round2))
  }

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
