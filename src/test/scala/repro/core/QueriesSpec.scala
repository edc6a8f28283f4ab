package repro.core

import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.{Oracle, SparkSpec, SynthData}
import repro.coldstore.ColdStore

class QueriesSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val lineitem = SynthData.lineitem(spark, sf = 0.005).cache()

  /** A hand-built LINEITEM, as (flag, status, quantity, price, discount,
    * tax, shipdate): every discount 0.00-0.10 and every tax 0.00-0.08,
    * TPC-H's extreme prices (900.00, 104949.50) and quantities (1, 50), a
    * group (R, F) that lies in a single (discount, tax) cell, a row on Q1's
    * cutoff, and two rows past it, one of them the only row of (A, O). No
    * group's average lands on a half at four places, where a double may
    * round differently in the two engines.
    */
  private lazy val edgeLineitem = {
    import spark.implicits._
    val dec = DecimalType(15, 2)
    Seq(
      ("A", "F", "1", "900.00", "0.00", "0.00", "1995-03-10"),
      ("A", "F", "50", "104949.50", "0.01", "0.01", "1995-03-11"),
      ("A", "F", "7", "55012.37", "0.02", "0.02", "1995-03-12"),
      ("A", "F", "23", "1234.56", "0.03", "0.03", "1995-03-13"),
      ("A", "F", "41", "98765.43", "0.04", "0.04", "1995-03-14"),
      ("A", "F", "3", "900.00", "0.05", "0.05", "1995-03-15"),
      ("A", "F", "17", "104949.50", "0.06", "0.06", "1995-03-16"),
      ("A", "F", "29", "45678.90", "0.07", "0.07", "1995-03-17"),
      ("A", "F", "50", "31415.92", "0.08", "0.08", "1995-03-18"),
      ("A", "F", "12", "900.01", "0.09", "0.00", "1995-03-19"),
      ("A", "F", "36", "77777.77", "0.10", "0.01", "1995-03-10"),
      ("N", "O", "50", "104949.50", "0.08", "0.00", "1997-06-01"),
      ("N", "O", "1", "900.00", "0.07", "0.01", "1997-06-02"),
      ("N", "O", "19", "5000.05", "0.06", "0.02", "1997-06-03"),
      ("N", "O", "44", "65432.10", "0.05", "0.03", "1997-06-04"),
      ("N", "O", "8", "900.00", "0.04", "0.04", "1997-06-05"),
      ("N", "O", "33", "12345.67", "0.03", "0.05", "1997-06-06"),
      ("N", "O", "26", "104949.50", "0.02", "0.06", "1997-06-07"),
      ("N", "O", "2", "2500.25", "0.01", "0.07", "1997-06-08"),
      ("N", "O", "47", "88888.88", "0.00", "0.08", "1997-06-09"),
      ("R", "F", "1", "900.00", "0.04", "0.02", "1993-11-11"),
      ("R", "F", "50", "104949.50", "0.04", "0.02", "1993-11-11"),
      ("R", "F", "13", "60000.00", "0.04", "0.02", "1993-11-11"),
      ("N", "F", "9", "3000.00", "0.10", "0.08", Queries.Q1CutoffDate),
      ("N", "F", "14", "104949.50", "0.00", "0.00", "1992-01-02"),
      ("N", "F", "27", "900.00", "0.07", "0.05", "1996-02-29"),
      ("N", "F", "38", "42000.42", "0.03", "0.06", "1994-07-04"),
      ("A", "O", "25", "50000.00", "0.05", "0.04", "1998-09-03"),
      ("N", "O", "30", "104949.50", "0.09", "0.01", "1998-12-01"),
    ).toDF("l_returnflag", "l_linestatus", "q", "p", "d", "t", "s").select(
      col("q").cast(dec) as "l_quantity", col("p").cast(dec) as "l_extendedprice",
      col("d").cast(dec) as "l_discount", col("t").cast(dec) as "l_tax",
      col("l_returnflag"), col("l_linestatus"), col("s").cast(DateType) as "l_shipdate")
  }

  test("Q1 matches DuckDB on the full synthetic LINEITEM") {
    Oracle.assertEquivalent(Queries.q1(lineitem), Queries.q1DuckSql, "lineitem" -> lineitem)
  }

  test("Q6 matches DuckDB on the full synthetic LINEITEM") {
    Oracle.assertEquivalent(Queries.q6(lineitem), Queries.q6DuckSql, "lineitem" -> lineitem)
  }

  test("Q1 produces one row per (returnflag, linestatus) combination") {
    val rows = Queries.q1(lineitem).collect()
    assert(rows.length == 6, "3 return flags x 2 line statuses")
    assert(rows.map(r => (r.getString(0), r.getString(1))).distinct.length == 6)
  }

  test("Q1 selects ~95-98 % of the relation (paper: 98 %)") {
    val total    = lineitem.count().toDouble
    val selected = lineitem.filter(Queries.Q1Shipdate).count()
    val sel = selected / total
    assert(sel > 0.90 && sel < 0.99, s"selectivity=$sel")
  }

  test("Q6 selects ~2 % of the relation (paper: 2 %)") {
    val total = lineitem.count().toDouble
    val selected = lineitem.filter(Queries.Q6Predicate).count()
    val sel = selected / total
    assert(sel > 0.01 && sel < 0.035, s"selectivity=$sel")
  }

  test("Q6 returns a single aggregate row with positive revenue") {
    val rows = Queries.q6(lineitem).collect()
    assert(rows.length == 1)
    assert(rows.head.getDecimal(0).doubleValue > 0)
  }

  test("Q1 on an empty relation returns no groups, matching DuckDB") {
    val empty = lineitem.limit(0)
    Oracle.assertEquivalent(Queries.q1(empty), Queries.q1DuckSql, "lineitem" -> empty)
  }

  test("Q1 matches DuckDB on a LINEITEM of every discount, tax and extreme value") {
    assert(edgeLineitem.select("l_discount").distinct().count() == 11)
    assert(edgeLineitem.select("l_tax").distinct().count() == 9)
    Oracle.assertEquivalent(Queries.q1(edgeLineitem), Queries.q1DuckSql, "lineitem" -> edgeLineitem)
  }

  test("Q1's output keeps the per-row query's column names, order and types") {
    val schema = Queries.q1(lineitem).schema.map(f => f.name -> f.dataType)
    assert(schema == Seq(
      "l_returnflag"   -> StringType,
      "l_linestatus"   -> StringType,
      "sum_qty"        -> DecimalType(28, 6),
      "sum_base_price" -> DecimalType(22, 2),
      "sum_disc_price" -> DecimalType(28, 4),
      "sum_charge"     -> DecimalType(34, 6),
      "avg_qty"        -> DoubleType,
      "avg_price"      -> DoubleType,
      "avg_disc"       -> DoubleType,
      "count_order"    -> LongType))
  }

  test("Q1 shuffles once, on the four partial keys, and range-partitions nothing") {
    val q = Queries.q1(lineitem)
    q.collect()
    val shuffles = collect(q.queryExecution.executedPlan) {
      case s: ShuffleExchangeExec => s.outputPartitioning
    }
    assert(shuffles.size == 1, shuffles)
    shuffles.head match {
      // Spark projects the two casts out as grouping attributes of its own.
      case h: HashPartitioning =>
        assert(h.expressions.size == 4)
        assert(h.expressions.take(2).collect { case a: Attribute => a.name } ==
          Seq("l_returnflag", "l_linestatus"))
      case p => fail(s"phase 1 shuffles by $p")
    }
  }

  test("normalizeDate maps the domain endpoints to [0, 1]") {
    assert(ColdStore.normalizeDate("1992-01-01") == 0.0)
    assert(math.abs(ColdStore.normalizeDate("1998-12-31") - 1.0) < 0.001)
    val cut = ColdStore.normalizeDate(Queries.Q1CutoffDate)
    assert(cut > 0.94 && cut < 0.96)
  }

  test("query profiles carry the paper's selectivities and column sets") {
    assert(Queries.Q1Profile.rowSelectivity == 0.98)
    assert(Queries.Q6Profile.rowSelectivity == 0.02)
    assert(Queries.Q1Columns.size == 7, "Q1 uses seven attributes (Section 5.3)")
    assert(Queries.Q6Columns.size == 4, "Q6 uses four attributes (Section 5.3)")
    assert(Queries.Q6Profile.keyLo < Queries.Q6Profile.keyHi)
    assert(Queries.Q6Profile.keyHi - Queries.Q6Profile.keyLo < 0.2,
      "Q6 touches one year out of seven")
  }
}
