package repro.exchange

import org.scalatest.funsuite.AnyFunSuite

import repro.model.Pricing
import repro.report.PaperNumbers

class ExchangeSimSpec extends AnyFunSuite {

  private val gb100 = 100 * Pricing.GB

  private def within(actual: Double, paper: Double, tol: Double): Unit =
    assert(math.abs(actual - paper) / paper <= tol,
      f"ours $actual%.1f vs paper $paper%.1f (tol ${tol * 100}%.0f%%)")

  test("Table 3: Lambada 100 GB at 250/500/1000 workers within 20 % of paper") {
    within(ExchangeSim.lambadaTwoLevel(250, gb100).totalSeconds, 22.0, 0.20)
    within(ExchangeSim.lambadaTwoLevel(500, gb100).totalSeconds, 15.0, 0.20)
    within(ExchangeSim.lambadaTwoLevel(1000, gb100).totalSeconds, 13.0, 0.20)
  }

  test("Table 3: Pocket over VM storage within 25 % of paper") {
    within(ExchangeSim.pocketVm(250, gb100), 58.0, 0.25)
    within(ExchangeSim.pocketVm(500, gb100), 28.0, 0.25)
    within(ExchangeSim.pocketVm(1000, gb100), 18.0, 0.25)
  }

  test("Table 3: Pocket's S3 baseline at 250 workers within 25 % of 98 s") {
    within(ExchangeSim.pocketS3Baseline(250, gb100), 98.0, 0.25)
  }

  test("Table 3: Locus band overlaps the published 80-140 s") {
    val (lo, hi) = ExchangeSim.locus(gb100)
    assert(lo < 140 && hi > 80, s"($lo, $hi)")
  }

  test("Table 3 ordering: Lambada beats Pocket-on-S3 by ~5x at 250 workers") {
    val ratio = ExchangeSim.pocketS3Baseline(250, gb100) /
      ExchangeSim.lambadaTwoLevel(250, gb100).totalSeconds
    assert(ratio > 3.5 && ratio < 6.0, s"paper: 5x, ours ${ratio}x")
  }

  test("Table 3 ordering: Lambada beats Pocket-on-VMs at every fleet size") {
    for (p <- Seq(250, 500, 1000)) {
      assert(ExchangeSim.lambadaTwoLevel(p, gb100).totalSeconds <
        ExchangeSim.pocketVm(p, gb100), s"p=$p")
    }
  }

  test("Table 3 ordering: Lambada at 250 workers is ~4x faster than Locus' best") {
    val (locusBest, _) = ExchangeSim.locus(gb100)
    val ratio = locusBest / ExchangeSim.lambadaTwoLevel(250, gb100).totalSeconds
    assert(ratio > 2.5 && ratio < 5.0, s"paper: ~4x, ours ${ratio}x")
  }

  test("1 TB on 1250 workers within 15 % of the paper's 56 s") {
    within(ExchangeSim.lambadaTwoLevel(1250, Pricing.TB).totalSeconds, 56.0, 0.15)
  }

  test("3 TB on 2500 workers within 20 % of the paper's 159 s") {
    within(ExchangeSim.lambadaTwoLevel(2500, 3 * Pricing.TB).totalSeconds, 159.0, 0.20)
  }

  test("Fig 13: on 1 TB the fastest worker runs ~85 % of the end-to-end time") {
    val run = ExchangeSim.lambadaTwoLevel(1250, Pricing.TB)
    val frac = run.fastestWorkerSeconds / run.totalSeconds
    assert(frac > 0.78 && frac < 0.97, s"paper ~0.85, ours $frac")
  }

  test("Fig 13: on 3 TB total execution is >2x the per-phase lower bound") {
    val run = ExchangeSim.lambadaTwoLevel(2500, 3 * Pricing.TB)
    assert(run.totalSeconds > 1.8 * run.lowerBoundSeconds,
      s"${run.totalSeconds} vs bound ${run.lowerBoundSeconds}")
  }

  test("Fig 13: write-phase tail grows from ~1.3x (1 TB) to ~4x (3 TB)") {
    val small = ExchangeSim.lambadaTwoLevel(1250, Pricing.TB).writeTailRatio
    val big   = ExchangeSim.lambadaTwoLevel(2500, 3 * Pricing.TB).writeTailRatio
    assert(small > 1.1 && small < 1.7, s"paper ~1.3, ours $small")
    assert(big > 3.0 && big < 5.5, s"paper ~4, ours $big")
  }

  test("Fig 13: the five data phases have equal fastest times (same volume, full bandwidth)") {
    val run = ExchangeSim.lambadaTwoLevel(1250, Pricing.TB)
    val dataPhases = Seq("read-input", "write-1", "read-1", "write-2", "read-2")
      .map(run.phaseFastest)
    assert(dataPhases.max / dataPhases.min < 1.05)
  }

  test("waiting is never shorter than one S3 round-trip (Section 5.5)") {
    val run = ExchangeSim.lambadaTwoLevel(500, gb100)
    assert(run.phaseFastest("wait-1") >= repro.model.S3Model.RequestLatencySeconds)
    assert(run.phaseFastest("wait-2") >= repro.model.S3Model.RequestLatencySeconds)
  }

  test("demand ratio exceeds 1 only for fleets beyond the S3 backend capacity") {
    assert(ExchangeSim.demandRatio(1000) < 1.0)
    assert(ExchangeSim.demandRatio(1250) > 1.0)
    assert(ExchangeSim.demandRatio(2500) > 2.0)
  }

  test("more workers reduce exchange time on a fixed dataset (until contention)") {
    val t250  = ExchangeSim.lambadaTwoLevel(250, gb100).totalSeconds
    val t500  = ExchangeSim.lambadaTwoLevel(500, gb100).totalSeconds
    val t1000 = ExchangeSim.lambadaTwoLevel(1000, gb100).totalSeconds
    assert(t250 > t500 && t500 > t1000)
  }

  test("the simulation is deterministic in its seed") {
    val a = ExchangeSim.lambadaTwoLevel(500, gb100, seed = 5)
    val b = ExchangeSim.lambadaTwoLevel(500, gb100, seed = 5)
    val c = ExchangeSim.lambadaTwoLevel(500, gb100, seed = 6)
    assert(a.totalSeconds == b.totalSeconds)
    assert(a.totalSeconds != c.totalSeconds)
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)
  /** Order-sensitive hash of a per-worker vector. */
  private def hash(v: Vector[Double]): Long = v.foldLeft(0L)((h, x) => h * 31 + bits(x))

  /** Raw bits of the Table 3 and Fig 13 runs, taken from the sim with its two
    * rounds written out by hand: total, fastest worker, lower bound and write
    * tail; the fastest of each phase in `PhaseKeys` order; hashes of each
    * round's write and wait vector.
    */
  private final case class Pin(p: Int, bytes: Double, scalars: Seq[Long], phases: Seq[Long],
                               writes: Seq[Long], waits: Seq[Long])
  private val PhaseKeys =
    Seq("read-1", "read-2", "read-input", "wait-1", "wait-2", "write-1", "write-2")
  private val pins = Seq(
    Pin(250, gb100,
      Seq(0x40389c14f668ceb8L, 0x403776cd77c7020aL, 0x4036b1f582678bf8L, 0x3ff25009c38f96f3L),
      Seq(0x4010f447664bb88cL, 0x4010f47fa78e66e8L, 0x4010f48360a82631L, 0x3fe8000000000000L,
        0x3fe8000000000000L, 0x4010f4844d6e40a8L, 0x4010f6074dada994L),
      writes = Seq(0x478f433949b97865L, 0x554fd1fe8a884f53L),
      waits = Seq(0x1e7e4ecc2ffbf668L, 0x9b29dce5d27e0f80L)),
    Pin(500, gb100,
      Seq(0x402e4266e212d88dL, 0x402c0076e04c1264L, 0x402b3189033acbe5L, 0x3ff29f5420d8131fL),
      Seq(0x4000f447664bb88cL, 0x4000f47fa78e66e8L, 0x4000f48360a82631L, 0x3ff8000000000000L,
        0x3ff8000000000000L, 0x4000f450b2e785d1L, 0x4000f488eb81641fL),
      writes = Seq(0xd22ad473fb0354aaL, 0x9858406a39d7402fL),
      waits = Seq(0x39eb4dcd9efa2f7cL, 0xa98518188c1020b4L)),
    Pin(1000, gb100,
      Seq(0x40295c3a75192871L, 0x40270497be76a482L, 0x402698bf2a9f893eL, 0x3ff448a94ff6898dL),
      Seq(0x3ff0f447664bb88cL, 0x3ff0f44b226f4417L, 0x3ff0f46528aad52cL, 0x4007ffffffffffffL,
        0x4008000000000000L, 0x3ff0f476b1d8bb3fL, 0x3ff0f48af1bdbcdfL),
      writes = Seq(0xe0749a251c7b9c70L, 0x70bf597c28a8d9c0L),
      waits = Seq(0x43272578019fb0c5L, 0x907f27e328a4a2f8L)),
    Pin(1250, Pricing.TB,
      Seq(0x404c8e407da37adeL, 0x404acf303661c14bL, 0x4048f18dd4a7a649L, 0x3ff58c62e79b98e2L),
      Seq(0x4020f447664bb88cL, 0x4020f44b226f4417L, 0x4020f46528aad52cL, 0x400e000000000000L,
        0x400e000000000000L, 0x4020f49c9816fd40L, 0x4020f4a30921ca15L),
      writes = Seq(0x4a2526a745d0106cL, 0x40a4ce404217cb86L),
      waits = Seq(0x63132f4383def8bcL, 0x5d808a10dbeb88ccL)),
    Pin(2500, 3 * Pricing.TB,
      Seq(0x40649d68d3f42a8aL, 0x405fc72f39c58a0bL, 0x4053a512aaabf32aL, 0x400d2b4498fbb45dL),
      Seq(0x40296e6b197194d3L, 0x40296e70b3a6e624L, 0x40296e82755e24bdL, 0x401dfffffffffff8L,
        0x401e000000000000L, 0x40296e832aade868L, 0x40296eb3e83b1138L),
      writes = Seq(0x67f77f54b15a004aL, 0xcd911d519f1a90ecL),
      waits = Seq(0x0a44169c6d884ea6L, 0x716a10a73e0be857L)),
  )

  test("the round loop reproduces the pinned two-round runs bit for bit (Table 3, Fig 13)") {
    for (pin <- pins) {
      val run = ExchangeSim.lambadaTwoLevel(pin.p, pin.bytes)
      val scalars = Seq(run.totalSeconds, run.fastestWorkerSeconds, run.lowerBoundSeconds,
        run.writeTailRatio)
      assert(scalars.map(bits) == pin.scalars, s"P=${pin.p}")
      assert(run.phaseFastest.keys.toSeq.sorted == PhaseKeys, s"P=${pin.p}")
      assert(PhaseKeys.map(k => bits(run.phaseFastest(k))) == pin.phases, s"P=${pin.p}")
      assert(run.writeSeconds.map(hash) == pin.writes, s"P=${pin.p}")
      assert(run.waitSeconds.map(hash) == pin.waits, s"P=${pin.p}")
      assert(run.readSeconds.map(_.size) == Seq(pin.p, pin.p, pin.p), s"P=${pin.p}")
    }
  }

  test("tiny fleets are rejected") {
    intercept[IllegalArgumentException](ExchangeSim.lambadaTwoLevel(2, gb100))
  }
}
