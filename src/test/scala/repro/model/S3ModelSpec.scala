package repro.model

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec
import repro.report.PaperNumbers

class S3ModelSpec extends AnyFunSuite with PropSpec {

  test("large-file sustained bandwidth is ~90 MiB/s per worker (Fig 6a)") {
    assert(S3Model.sustainedMiBps(2048) == 90.0)
    assert(S3Model.sustainedMiBps(3008) == 90.0)
    for (c <- 1 to 8) assert(S3Model.scanMiBps(64.0, c, 3008) <= 90.0 + 1e-9, s"$c connections")
  }

  test("workers under 1 GiB see slightly lower ingress bandwidth (Fig 6a)") {
    assert(S3Model.sustainedMiBps(512) < S3Model.sustainedMiBps(1024))
    assert(S3Model.sustainedMiBps(512) > 60.0)
  }

  test("a single connection needs ~16 MB chunks to approach the maximum (Fig 7)") {
    // "reasonably close": within 15 % of the 90 MiB/s cap at 16 MiB chunks...
    assert(S3Model.scanMiBps(16.0, 1) > 0.85 * S3Model.SustainedMiBps)
    // ...but clearly below it at 1 MiB chunks.
    assert(S3Model.scanMiBps(1.0, 1) < 0.5 * S3Model.SustainedMiBps)
  }

  test("four connections saturate the link already at 1 MB chunks (Fig 7)") {
    assert(S3Model.scanMiBps(1.0, 4) == S3Model.SustainedMiBps)
  }

  test("bandwidth is monotone in chunk size and connection count") {
    val chunks = Seq(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    chunks.sliding(2).foreach { case Seq(a, b) =>
      assert(S3Model.scanMiBps(a, 1) <= S3Model.scanMiBps(b, 1))
    }
    (1 to 7).foreach(k => assert(S3Model.scanMiBps(0.5, k) <= S3Model.scanMiBps(0.5, k + 1)))
  }

  test("small objects burst to ~300 MiB/s only with several connections on big workers (Fig 6b)") {
    assert(S3Model.smallObjectMiBps(16.0, 4, 3008) == S3Model.BurstMiBps)
    assert(S3Model.BurstMiBps == PaperNumbers.Fig6SmallFileBurstMiBps)
    assert(S3Model.smallObjectMiBps(16.0, 1, 3008) < 90.0)     // one connection: no burst
    assert(S3Model.smallObjectMiBps(16.0, 4, 512) <= 90.0)     // small worker: no burst credit
  }

  test("request count is the ceiling of bytes over chunk size") {
    assert(S3Model.requestCount(1_000_000_000L, 1024 * 1024) == 954)
    assert(S3Model.requestCount(1024, 1024) == 1)
    assert(S3Model.requestCount(1025, 1024) == 2)
  }

  checkProp("request count x chunk size always covers the object") {
    Prop.forAll(Gen.choose(1L, 1L << 40), Gen.choose(1L, 1L << 26)) { (bytes, chunk) =>
      val n = S3Model.requestCount(bytes, chunk)
      n * chunk >= bytes && (n - 1) * chunk < bytes
    }
  }

  test("request dollars are inversely proportional to chunk size (Fig 7)") {
    val oneMiB = S3Model.requestDollars(1_000_000_000L, 1024 * 1024)
    val eightMiB = S3Model.requestDollars(1_000_000_000L, 8 * 1024 * 1024)
    assert(oneMiB / eightMiB > 7.5 && oneMiB / eightMiB < 8.5)
  }

  test("with tiny chunks, request cost dominates the worker cost (Fig 7)") {
    val sweep = repro.scan.ScanModel.chunkSizeSweep(chunksMiB = Seq(0.25, 1.0, 16.0),
      connections = Seq(4))
    val tiny = sweep.find(r => r.chunkMiB == 0.25).get
    val one  = sweep.find(r => r.chunkMiB == 1.0).get.requestToWorkerCostRatio
    val big  = sweep.find(r => r.chunkMiB == 16.0).get
    assert(tiny.requestToWorkerCostRatio > 1.0, "0.25 MiB chunks: requests dominate")
    assert(one > 0.3 && one < 2.5, "1 MiB chunks: requests rival workers " +
      s"(paper ${PaperNumbers.Fig7RequestToWorkerRatioAt1MiB}x, ours ${one}x)")
    assert(big.requestToWorkerCostRatio < 0.1, "16 MiB chunks: requests negligible")
  }

  test("download time matches bytes over effective bandwidth") {
    val t = S3Model.downloadSeconds(900 * 1024 * 1024, 8 * 1024 * 1024, 4)
    assert(math.abs(t - 10.0) < 0.01) // 900 MiB at 90 MiB/s
  }

  test("2018 rate limits: 3.5k writes and 5.5k reads per second per prefix") {
    assert(S3Model.PutRateLimitPerSecond == 3500.0)
    assert(S3Model.GetRateLimitPerSecond == 5500.0)
    assert(S3Model.HistoricPutRateLimit == 300.0)
    assert(S3Model.HistoricGetRateLimit == 800.0)
  }

  test("invalid arguments are rejected") {
    intercept[IllegalArgumentException](S3Model.scanMiBps(0.0, 1))
    intercept[IllegalArgumentException](S3Model.scanMiBps(1.0, 0))
    intercept[IllegalArgumentException](S3Model.requestCount(100, 0))
  }
}
