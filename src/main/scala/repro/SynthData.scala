package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic input data, deterministic in (sf or rows, seed), so the DuckDB
  * oracle sees identical input. Every value is a hash of its row's id, so a
  * row is the same whatever the session's parallelism or partitioning.
  *
  * `lineitem` is a TPC-H-like `lineitem` at a configurable scale factor:
  * SF=1.0 has TPC-H SF1's 6 M rows: the columns Q1 and Q6 read, a line
  * number, and order and part keys over ranges that scale with SF. Tests
  * use SF<=0.01; benchmarks use SF~=0.1. Quantity, price, discount and tax
  * are DECIMAL(15,2), TPC-H's DECIMAL at the precision DuckDB's TPC-H
  * tables use, so Parquet stores them as INT64 decimals. `l_quantity` is an
  * integer in [1, 50], as TPC-H draws it (§4.2.3). `uniformKeys` and
  * `zipfKeys` are key/value columns for the exchange.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NPartPerSf     =   200_000L

  /** `l_shipdate`'s domain: 2,557 days from 1992-01-01 (days since the Unix epoch). */
  val ShipdateEpochDay: Int = java.time.LocalDate.parse("1992-01-01").toEpochDay.toInt
  val ShipdateDays: Int     = 2557

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** Stream `stream` of a row: uniform in [0, 1), the top 53 bits of a hash of its id. */
  private def uniform(stream: Long): Column =
    shiftrightunsigned(xxhash64(col("id"), lit(stream)), 11) * math.pow(2, -53)

  /** The type of `l_quantity`, `l_extendedprice`, `l_discount` and `l_tax`. */
  private val Dec = DecimalType(15, 2)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    // Casting a double to DECIMAL rounds it HALF_UP to two places, as round(_, 2) does.
    spark.range(n(NLineitemPerSf, sf)).select(
      (uniform(seed)     * nOrders + 1).cast(LongType) as "l_orderkey",
      (uniform(seed + 1) * nPart   + 1).cast(LongType) as "l_partkey",
      (uniform(seed + 2) * 7 + 1).cast(IntegerType)    as "l_linenumber",
      (floor(uniform(seed + 3) * 50) + 1).cast(Dec)    as "l_quantity",
      (uniform(seed + 4) * 90000 + 900).cast(Dec)      as "l_extendedprice",
      (uniform(seed + 5) * 0.10).cast(Dec)             as "l_discount",
      (uniform(seed + 6) * 0.08).cast(Dec)             as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (uniform(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (uniform(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_from_unix_date((uniform(seed + 9) * ShipdateDays).cast("int") + ShipdateEpochDay) as "l_shipdate",
    )
  }

  /** Zipf-skewed key column (the exchange's skewed-key input). */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    spark.range(rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (uniform(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      uniform(seed + 1) as "v",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    spark.range(rows).select(
      (uniform(seed) * nKeys + 1).cast(LongType) as "k",
      uniform(seed + 1)                          as "v",
    )
  }
}
