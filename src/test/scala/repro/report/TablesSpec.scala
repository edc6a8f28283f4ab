package repro.report

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Queries
import repro.qaas.Athena

/** The paper's claims over an artifact's data rows: those that set systems or
  * cells side by side that no single model's spec holds. Row counts and the
  * rendered text are pinned by `ContractSpec`.
  */
class TablesSpec extends AnyFunSuite {

  test("Fig 11 data separates a fast and a slow class for both queries") {
    val q1 = Tables.fig11Data(Queries.Q1Profile)
    val q6 = Tables.fig11Data(Queries.Q6Profile)
    val paper = s"paper: fast ${PaperNumbers.Fig11FastClassSecondsRange} s, " +
      s"slow ${PaperNumbers.Fig11SlowClassSecondsRange} s"
    assert(q1.fastClassMedian < 0.3 && q1.slowClassMedian > 2.0,
      s"$paper; ours Q1 ${q1.fastClassMedian}, ${q1.slowClassMedian}")
    assert(q6.fastClassMedian < 0.5 && q6.slowClassMedian > 1.5,
      s"$paper; ours Q6 ${q6.fastClassMedian}, ${q6.slowClassMedian}")
    assert(q6.prunedFraction > q1.prunedFraction)
  }

  private lazy val fig12 = Tables.fig12Rows

  /** The Fig 12 row of query `q` at scale factor `sf`: Athena's only row, or
    * the row of `system` in `mode`.
    */
  private def fig12Row(q: String, sf: Int, system: String, mode: String): Tables.Fig12Row =
    fig12.find(r => r.query == q && r.sf == sf && r.system == system &&
      (r.mode == mode || system == "athena")).get

  private def latency(q: String, sf: Int, system: String, mode: String = "hot"): Double =
    fig12Row(q, sf, system, mode).latencySeconds

  private def usd(q: String, sf: Int, system: String): Double = fig12Row(q, sf, system, "hot").usd

  test("Fig 12: Athena is ~4x slower than Lambada on Q1 at SF 1k") {
    val ratio = latency("Q1", 1000, "athena") / latency("Q1", 1000, "lambada")
    assert(ratio > 3.0 && ratio < 5.5,
      s"paper ~${PaperNumbers.Fig12AthenaOverLambadaQ1Sf1k}x, ours $ratio")
  }

  test("Fig 12: Athena's latency grows ~linearly with the scale factor") {
    val ratio = (latency("Q1", 10000, "athena") - Athena.OverheadSeconds) /
      (latency("Q1", 1000, "athena") - Athena.OverheadSeconds)
    assert(ratio > 8 && ratio < 12, s"~10x expected, ours $ratio")
  }

  test("Fig 12: at SF 10k Lambada leads Athena by ~26x (Q1) and ~15x (Q6)") {
    val rQ1 = latency("Q1", 10000, "athena") / latency("Q1", 10000, "lambada")
    val rQ6 = latency("Q6", 10000, "athena") / latency("Q6", 10000, "lambada")
    assert(rQ1 > 20 && rQ1 < 40, s"paper ~${PaperNumbers.Fig12AthenaOverLambadaQ1Sf10k}x, ours $rQ1")
    assert(rQ6 > 10 && rQ6 < 20, s"paper ~${PaperNumbers.Fig12AthenaOverLambadaQ6Sf10k}x, ours $rQ6")
  }

  test("Fig 12: Lambada is ~1 order cheaper than Athena, ~2 than BigQuery (Q1)") {
    val athena = usd("Q1", 1000, "athena") / usd("Q1", 1000, "lambada")
    val bq     = usd("Q1", 1000, "bigquery") / usd("Q1", 1000, "lambada")
    assert(athena > 5 && athena < 20,
      s"paper ~${PaperNumbers.Fig12CostGapAthenaOrders} order, ours $athena")
    assert(bq > 30 && bq < 200, s"paper ~${PaperNumbers.Fig12CostGapBigQueryOrders} orders, ours $bq")
  }

  test("Fig 12: Lambada is cheaper than BigQuery, and than Athena within 5 %, at every query and SF") {
    for (q <- Seq("Q1", "Q6"); sf <- Seq(1000, 10000)) {
      val lambada = usd(q, sf, "lambada")
      assert(lambada <= usd(q, sf, "athena") * 1.05, s"$q SF$sf vs athena")
      assert(lambada < usd(q, sf, "bigquery"), s"$q SF$sf vs bigquery")
    }
  }

  test("Fig 12: for Q6 at SF 1k Lambada and Athena cost about the same") {
    val ratio = usd("Q6", 1000, "athena") / usd("Q6", 1000, "lambada")
    assert(ratio > 0.7 && ratio < 1.5, s"paper: Lambada slightly cheaper; ours ratio=$ratio")
    assert(usd("Q6", 1000, "athena") < usd("Q1", 1000, "athena") / 20,
      "selections reach Athena's cost model: Q6 is nearly free there too")
  }

  test("Fig 12: BigQuery hot beats everyone at SF 1k but pays a huge load delay") {
    assert(latency("Q1", 1000, "bigquery") < latency("Q1", 1000, "lambada"))
    val load1k  = latency("Q1", 1000, "bigquery", "cold(load+query)") / 60
    val load10k = latency("Q1", 10000, "bigquery", "cold(load+query)") / 3600
    assert(load1k > 35 && load1k < 45,
      s"paper ~${PaperNumbers.Fig12BigQueryLoadSf1kMinutes} min, ours $load1k")
    assert(load10k > 6.0 && load10k < 7.4,
      s"paper ~${PaperNumbers.Fig12BigQueryLoadSf10kHours} h, ours $load10k")
  }

  test("Fig 12: at SF 10k BigQuery is slower than Lambada on Q1, faster on Q6") {
    val q1 = latency("Q1", 10000, "bigquery") / latency("Q1", 10000, "lambada")
    val q6 = latency("Q6", 10000, "lambada") / latency("Q6", 10000, "bigquery")
    assert(q1 > 1.8, s"BigQuery/Lambada: paper ${PaperNumbers.Fig12BigQueryOverLambadaQ1Sf10k}, ours $q1")
    assert(q6 > 1.5, s"Lambada/BigQuery: paper ${PaperNumbers.Fig12LambadaOverBigQueryQ6Sf10k}, ours $q6")
  }
}
