package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DecimalType

import repro.coldstore.ColdStore.normalizeDate
import repro.scan.QueryProfile

/** TPC-H Queries 1 and 6 — the paper's evaluation queries (Sections 5.2–5.4)
  * — as Spark DataFrame (Catalyst) transformations, plus the equivalent
  * DuckDB SQL used by the oracle.
  *
  * LINEITEM's quantity, price, discount and tax are DECIMAL(15,2), so the
  * casts below only change a decimal's precision. Sum aggregates are
  * computed in DECIMAL on both engines, at six decimal places or fewer, and
  * the oracle compares decimals at six places, so sums match exactly or
  * fail (float summation order would otherwise flake the oracle). Averages
  * are computed in DOUBLE and rounded to four decimals on both sides.
  */
object Queries {

  /** Q1's date predicate: l_shipdate <= 1998-12-01 minus 90 days. */
  val Q1CutoffDate = "1998-09-02"
  /** Q6's shipdate year. */
  val Q6DateLo = "1994-01-01"
  val Q6DateHi = "1995-01-01"

  /** Q1's and Q6's shipdate predicates, as `q1` and `q6` apply them. */
  val Q1Shipdate: Column = col("l_shipdate") <= lit(Q1CutoffDate).cast("date")
  val Q6Shipdate: Column = col("l_shipdate") >= lit(Q6DateLo).cast("date") &&
    col("l_shipdate") < lit(Q6DateHi).cast("date")

  /** Q6's whole predicate, as `q6` applies it. The discount bounds are
    * DECIMAL literals, so Spark compares the DECIMAL column as it is rather
    * than as a double.
    */
  val Q6Predicate: Column = Q6Shipdate &&
    col("l_discount").between(lit(BigDecimal("0.05")), lit(BigDecimal("0.07"))) &&
    col("l_quantity") < 24

  private val price = DecimalType(12, 2)
  private val rate  = DecimalType(4, 2)
  /** Q1's phase-1 quantity and price. A sum of DECIMAL(8,2) is DECIMAL(18,2),
    * which Spark's aggregation buffer keeps as a long; a sum of more than 18
    * digits is kept as BigInteger bytes, and every row's update converts it
    * through `java.math.BigDecimal`. TPC-H's quantities (at most 50) and
    * prices (at most 104,949.50) fit nine times over; under ANSI mode,
    * Spark's default, a value that does not fit fails the cast.
    */
  private val item  = DecimalType(8, 2)

  /** TPC-H Q1: pricing summary report (selects ~98 % of LINEITEM).
    *
    * It runs in two phases, as Lambada's workers reduce their files to
    * partials that the driver combines (Sections 3 and 5.3):
    * 1. Group the surviving rows by (flag, status, discount, tax) and keep
    *    only sums and a count, with no multiply per row and no sum wider
    *    than a long (`item`). TPC-H has 11 discounts and 9 taxes, so there
    *    are at most 6 × 99 = 594 groups.
    * 2. Group those partials by (flag, status). `sum_disc_price` is
    *    Σ sp·(1 − d) and `sum_charge` is Σ sp·(1 − d)·(1 + t) over the
    *    partials' price sums sp. Decimal products and sums are exact, so by
    *    distributivity they equal the per-row sums Σ ep·(1 − d) and
    *    Σ ep·(1 − d)·(1 + t), digit for digit. The four sums are cast back to
    *    the types the per-row sums have (DuckDB's and the SQL's): DECIMAL
    *    (28,6), (22,2), (28,4) and (34,6). The averages are the exact sums
    *    over the count, in DOUBLE, rounded to four places.
    *
    * `coalesce(1)` gathers the partials into one task. Its `SinglePartition`
    * satisfies both phase 2's clustering and the ORDER BY's ordering, so the
    * plan has one shuffle (phase 1's) and no range partitioning: without it,
    * the six-row ORDER BY would run a sampling job and a range shuffle.
    */
  def q1(lineitem: DataFrame): DataFrame = {
    val one = lit(1).cast(rate)
    val (d, t, sq, sp, n) = (col("d"), col("t"), col("sq"), col("sp"), col("n"))
    lineitem
      .filter(Q1Shipdate)
      .groupBy(col("l_returnflag"), col("l_linestatus"),
        col("l_discount").cast(rate) as "d", col("l_tax").cast(rate) as "t")
      .agg(
        sum(col("l_quantity").cast(item))      as "sq",
        sum(col("l_extendedprice").cast(item)) as "sp",
        count(lit(1))                          as "n",
      )
      .coalesce(1)
      .groupBy(col("l_returnflag"), col("l_linestatus"))
      .agg(
        sum(sq).cast(DecimalType(28, 6))                              as "sum_qty",
        sum(sp).cast(DecimalType(22, 2))                              as "sum_base_price",
        sum(sp * (one - d)).cast(DecimalType(28, 4))                  as "sum_disc_price",
        sum(sp * (one - d) * (one + t)).cast(DecimalType(34, 6))      as "sum_charge",
        round(sum(sq).cast("double") / sum(n), 4)                     as "avg_qty",
        round(sum(sp).cast("double") / sum(n), 4)                     as "avg_price",
        round(sum(d * n).cast("double") / sum(n), 4)                  as "avg_disc",
        sum(n)                                                        as "count_order",
      )
      .orderBy(col("l_returnflag"), col("l_linestatus"))
  }

  /** DuckDB-side Q1 over the VARCHAR-typed oracle table. */
  val q1DuckSql: String =
    s"""SELECT l_returnflag, l_linestatus,
       |  sum(CAST(l_quantity AS DECIMAL(18,6)))                                  AS sum_qty,
       |  sum(CAST(l_extendedprice AS DECIMAL(12,2)))                             AS sum_base_price,
       |  sum(CAST(l_extendedprice AS DECIMAL(12,2))
       |      * (CAST(1 AS DECIMAL(4,2)) - CAST(l_discount AS DECIMAL(4,2))))     AS sum_disc_price,
       |  sum(CAST(l_extendedprice AS DECIMAL(12,2))
       |      * (CAST(1 AS DECIMAL(4,2)) - CAST(l_discount AS DECIMAL(4,2)))
       |      * (CAST(1 AS DECIMAL(4,2)) + CAST(l_tax AS DECIMAL(4,2))))          AS sum_charge,
       |  round(avg(CAST(l_quantity AS DOUBLE)), 4)                               AS avg_qty,
       |  round(avg(CAST(l_extendedprice AS DOUBLE)), 4)                          AS avg_price,
       |  round(avg(CAST(l_discount AS DOUBLE)), 4)                               AS avg_disc,
       |  count(*)                                                                AS count_order
       |FROM lineitem
       |WHERE l_shipdate <= '$Q1CutoffDate'
       |GROUP BY l_returnflag, l_linestatus""".stripMargin

  /** TPC-H Q6: forecasting revenue change (selects ~2 % of LINEITEM). */
  def q6(lineitem: DataFrame): DataFrame =
    lineitem
      .filter(Q6Predicate)
      .agg(sum(col("l_extendedprice").cast(price) * col("l_discount").cast(rate)) as "revenue")

  /** DuckDB-side Q6 over the VARCHAR-typed oracle table. */
  val q6DuckSql: String =
    s"""SELECT sum(CAST(l_extendedprice AS DECIMAL(12,2))
       |         * CAST(l_discount AS DECIMAL(4,2))) AS revenue
       |FROM lineitem
       |WHERE l_shipdate >= '$Q6DateLo' AND l_shipdate < '$Q6DateHi'
       |  AND CAST(l_discount AS DOUBLE) BETWEEN 0.05 AND 0.07
       |  AND CAST(l_quantity AS DOUBLE) < 24""".stripMargin

  // ---------------------------------------------------------------------
  // Query profiles for the scan/cost models, over the cold store's
  // normalized l_shipdate key domain (`ColdStore.normalizeDate`).
  // ---------------------------------------------------------------------

  val Q1Columns: Set[String] = Set("l_quantity", "l_extendedprice", "l_discount", "l_tax",
    "l_returnflag", "l_linestatus", "l_shipdate")
  val Q6Columns: Set[String] = Set("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")

  /** Q1 keeps ~95-98 % of the sorted key range — only the trailing files
    * prune (Fig 11: ~2 % of workers return immediately).
    */
  val Q1Profile: QueryProfile =
    QueryProfile("Q1", Q1Columns, 0.0, normalizeDate(Q1CutoffDate), rowSelectivity = 0.98)

  /** Q6 touches one year out of seven — ~85 % of files prune. */
  val Q6Profile: QueryProfile =
    QueryProfile("Q6", Q6Columns, normalizeDate(Q6DateLo), normalizeDate(Q6DateHi),
      rowSelectivity = 0.02)
}
