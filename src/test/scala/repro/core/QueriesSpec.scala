package repro.core

import repro.{Oracle, SparkSpec, SynthData}
import repro.coldstore.ColdStore

class QueriesSpec extends SparkSpec {

  private lazy val lineitem = SynthData.lineitem(spark, sf = 0.005).cache()

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
