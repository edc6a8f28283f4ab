package repro.exchange

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec
import repro.report.PaperNumbers

class ExchangeModelSpec extends AnyFunSuite with PropSpec {

  private val algo1  = ExchangeAlgo(1, writeCombining = false)
  private val algo1w = ExchangeAlgo(1, writeCombining = true)
  private val algo2  = ExchangeAlgo(2, writeCombining = false)
  private val algo2w = ExchangeAlgo(2, writeCombining = true)
  private val algo3  = ExchangeAlgo(3, writeCombining = false)
  private val algo3w = ExchangeAlgo(3, writeCombining = true)

  test("Table 2 closed forms at a perfect square+cube (P=4096)") {
    val p = 4096
    assert(ExchangeModel.reads(algo1, p) == p.toLong * p)
    assert(ExchangeModel.writes(algo1, p) == p.toLong * p)
    assert(ExchangeModel.reads(algo2, p) == 2L * p * 64)   // 2 P sqrt(P)
    assert(ExchangeModel.writes(algo2w, p) == 2L * p)
    assert(ExchangeModel.reads(algo3, p) == 3L * p * 16)   // 3 P cbrt(P)
    assert(ExchangeModel.writes(algo3w, p) == 3L * p)
    assert(ExchangeModel.lists(algo2w, p) == 2L * p)
    assert(ExchangeModel.lists(algo2, p) == 0L)
  }

  test("scan counts: k levels read and write the input k times (Table 2)") {
    assert(ExchangeModel.scans(algo1) == 1)
    assert(ExchangeModel.scans(algo2) == 2)
    assert(ExchangeModel.scans(algo3w) == 3)
  }

  test("labels match the paper's row names") {
    assert(ExchangeModel.Algorithms.map(_.label) ==
      Seq("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc"))
  }

  test("1k workers with BasicExchange need 2M requests (Section 4.4.1)") {
    val p = 1000
    assert(ExchangeModel.reads(algo1, p) + ExchangeModel.writes(algo1, p) == 2_000_000L)
  }

  test("Fig 9: BasicExchange at 4k workers costs ~$100 in requests, workers ~$3.3") {
    val p = 4096
    val requestUsd = ExchangeModel.requestDollars(algo1, p)
    assert(requestUsd > 80 && requestUsd < 110,
      s"paper: ~${PaperNumbers.Fig9BasicExchange4kRequestUsd}, ours $requestUsd")
    val workerHigh = ExchangeModel.workerDollarsHigh(p)
    assert(workerHigh > 2.5 && workerHigh < 5.5,
      s"paper: ~${PaperNumbers.Fig9Workers4kUsd}, ours $workerHigh")
    val paperRatio = PaperNumbers.Fig9BasicExchange4kRequestUsd / PaperNumbers.Fig9Workers4kUsd
    assert(requestUsd > 15 * workerHigh,
      f"requests dwarf workers: paper $paperRatio%.0fx, ours ${requestUsd / workerHigh}%.1fx")
  }

  test("Fig 9: at 256 workers, 1l request costs already exceed worker costs") {
    assert(ExchangeModel.requestDollars(algo1, 256) > ExchangeModel.workerDollarsHigh(256))
  }

  test("Fig 9: 2l always beats 1l in request cost") {
    for (p <- Seq(64, 256, 1024, 4096)) {
      assert(ExchangeModel.requestDollars(algo2, p) < ExchangeModel.requestDollars(algo1, p))
    }
  }

  test("Fig 9: 2l-wc brings request costs below worker costs almost everywhere") {
    for (p <- Seq(256, 1024, 4096)) {
      assert(ExchangeModel.requestDollars(algo2w, p) < ExchangeModel.workerDollarsHigh(p))
    }
  }

  test("Fig 9: 3l-wc request costs are negligible at every scale considered") {
    for (p <- Seq(64, 256, 1024, 4096)) {
      assert(ExchangeModel.requestDollars(algo3w, p) <
        0.1 * ExchangeModel.workerDollarsHigh(p))
    }
  }

  test("write combining makes the variant cheaper above a dozen workers (Section 4.4.3)") {
    for (p <- Seq(16, 64, 256, 1024)) {
      assert(ExchangeModel.requestDollars(algo2w, p) <= ExchangeModel.requestDollars(algo2, p))
    }
  }

  test("10k workers over 300 buckets stay under the PUT rate limit within ~3 s (Section 4.4.2)") {
    // Paper: "one round of exchange with 10k workers and 300 buckets should
    // thus take at most 3 s under the current limits."
    val ratePerBucket = ExchangeModel.requestRatePerBucket(10000, 2, 300, roundSeconds = 3.0)
    assert(ratePerBucket <= repro.model.S3Model.PutRateLimitPerSecond)
  }

  test("basic exchange at 1k workers over 10 buckets breaches historic limits, 3k does not fit") {
    // The bucket trick: P/10 requests per second per bucket is below the
    // historic 300/s write limit for up to 3k workers (Section 4.4.1).
    assert(3000 / 10 <= repro.model.S3Model.HistoricPutRateLimit)
    assert(4000 / 10 > repro.model.S3Model.HistoricPutRateLimit)
  }

  checkProp("request dollars decrease with levels for any square-and-cube P") {
    Prop.forAll(Gen.choose(2, 12)) { s =>
      val p = s * s * s * s * s * s // perfect square and cube
      ExchangeModel.requestDollars(algo3, p) <= ExchangeModel.requestDollars(algo2, p) &&
        ExchangeModel.requestDollars(algo2, p) <= ExchangeModel.requestDollars(algo1, p)
    }
  }

  checkProp("reads are P times the sum of the grid's radices, at any P") {
    Prop.forAll(Gen.choose(1, 2000), Gen.oneOf(ExchangeModel.Algorithms)) { (p, algo) =>
      ExchangeModel.reads(algo, p) == p.toLong * Grid(p, algo.levels).radices.sum
    }
  }

  test("Fig 9: 3l reads at P=256 and 1024 are those of the (8, 8, 4) and (16, 8, 8) grids") {
    assert(ExchangeModel.reads(algo3, 256) == 256L * 20)
    assert(ExchangeModel.reads(algo3w, 1024) == 1024L * 32)
  }

  checkProp("reads scale as k * P^(1+1/k) for perfect powers") {
    Prop.forAll(Gen.choose(2, 30)) { s =>
      val p2 = s * s
      ExchangeModel.reads(algo2, p2) == 2L * p2 * s
    }
  }
}
