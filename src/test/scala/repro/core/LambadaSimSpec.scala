package repro.core

import repro.{ColdStoreFixture, SparkSpec}
import repro.coldstore.ColdStore
import repro.report.PaperNumbers
import repro.scan.ParquetLayout

class LambadaSimSpec extends SparkSpec {

  private val files = ParquetLayout.lineitemSf1000()
  /** The SF 10k layout Fig 12 renders. */
  private lazy val sf10k = ParquetLayout.lineitemSf10000(files)

  private def q1(config: LambadaConfig) = LambadaSim.run(files, Queries.Q1Profile, config)
  private def q6(config: LambadaConfig) = LambadaSim.run(files, Queries.Q6Profile, config)

  /** Fig 10a's claims hold for the dbgen-16 column fractions and for those
    * measured on the shared cold store. Runs `claim` once per input, with Q1
    * over the SF 1000 layout built from that input's fractions.
    */
  private def fig10a(claim: (LambadaConfig => QueryRun) => Unit): Unit = Seq(
    "dbgen-16" -> ParquetLayout.LineitemColumnFractions,
    "measured" -> ParquetLayout.columnFractions(ColdStore.catalog(ColdStoreFixture.dir)),
  ).foreach { case (input, fractions) =>
    val layout = ParquetLayout.lineitemSf1000(fractions)
    withClue(s"$input fractions:") {
      claim(config => LambadaSim.run(layout, Queries.Q1Profile, config))
    }
  }

  test("F=1 uses one worker per file: 320 workers at SF 1000 (Section 5.2)") {
    assert(q1(LambadaConfig(1792, 1)).workers == 320)
    assert(q1(LambadaConfig(1792, 4)).workers == 80)
    assert(q1(LambadaConfig(1792, 2)).workers == 160)
  }

  test("Fig 10a: growing memory 512 -> 1792 MiB is significantly faster") {
    fig10a { q1 =>
      val slow = q1(LambadaConfig(512, 1)).latencySeconds
      val fast = q1(LambadaConfig(1792, 1)).latencySeconds
      assert(slow / fast > 2.0, s"$slow vs $fast")
    }
  }

  test("Fig 10a: 1792 MiB is marginally cheaper than 512 MiB") {
    fig10a { q1 =>
      val c512  = q1(LambadaConfig(512, 1)).dollars
      val c1792 = q1(LambadaConfig(1792, 1)).dollars
      assert(c1792 < c512, s"$c1792 vs $c512")
      assert(c1792 > 0.6 * c512, "marginal, not dramatic")
    }
  }

  test("Fig 10a: beyond 1792 MiB the price rises without real speed gains") {
    fig10a { q1 =>
      val base = q1(LambadaConfig(1792, 1))
      val big  = q1(LambadaConfig(3008, 1))
      assert(big.dollars > 1.25 * base.dollars)
      assert(big.latencySeconds > 0.9 * base.latencySeconds)
    }
  }

  test("Fig 10b: fewer files per worker is faster but more expensive") {
    val runs = Seq(1, 2, 4).map(f => q1(LambadaConfig(1792, f)))
    runs.sliding(2).foreach { case Seq(fewer, more) =>
      assert(fewer.latencySeconds < more.latencySeconds, s"F=${fewer.config.filesPerWorker}")
      assert(fewer.dollars > more.dollars, s"F=${fewer.config.filesPerWorker}")
    }
  }

  test("Fig 10: hot Q1 returns in under 10 s for all M >= 1024 configurations") {
    for (m <- Seq(1024, 1792, 2048, 3008)) {
      assert(q1(LambadaConfig(m, 1)).latencySeconds < 10.0, s"M=$m")
    }
  }

  test("Fig 10: cold runs cost ~20-35 % more latency than hot runs") {
    val hot  = q1(LambadaConfig(1792, 1)).latencySeconds
    val cold = q1(LambadaConfig(1792, 1, cold = true)).latencySeconds
    val penalty = cold / hot
    assert(penalty > 1.10 && penalty < 1.40,
      s"paper ~${PaperNumbers.Fig10ColdPenalty}, ours $penalty")
    // Every cell of the sweep; cold Q1 stays interactive for M >= 1024 at F=1.
    LambadaSim.workerConfigSweep(files, Queries.Q1Profile).foreach { case (c, h) =>
      val cell = s"M=${c.config.memoryMiB} F=${c.config.filesPerWorker}"
      assert(c.latencySeconds > h.latencySeconds, cell)
      if (c.config.memoryMiB >= 1024 && c.config.filesPerWorker == 1)
        assert(c.latencySeconds < PaperNumbers.Fig10LatencyCeilingSeconds, cell)
    }
  }

  test("Fig 11: Q1 prunes ~2-5 % of workers, Q6 ~80-90 % (min/max on l_shipdate)") {
    val rq1 = q1(LambadaConfig(1792, 1))
    val rq6 = q6(LambadaConfig(1792, 1))
    val fq1 = rq1.prunedWorkers.toDouble / rq1.workers
    val fq6 = rq6.prunedWorkers.toDouble / rq6.workers
    assert(fq1 > 0.01 && fq1 < 0.07, s"paper ~0.02, ours $fq1")
    assert(fq6 > 0.75 && fq6 < 0.90, s"paper ~0.80, ours $fq6")
  }

  test("Fig 11: worker times are bimodal — a sub-second class and a 2-3 s class") {
    val run = q6(LambadaConfig(1792, 1))
    val (fast, slow) = run.workerSeconds.partition(_ < 1.0)
    assert(fast.nonEmpty && slow.nonEmpty)
    // Metadata-only workers are ~0.2 s; up to two boundary files may scan a
    // sliver of a surviving row group and land in between.
    assert(fast.count(_ < 0.3) >= fast.size - 2, "fast class: metadata-only workers")
    assert(slow.min > 1.5 && slow.max < 4.0, "slow class: scanning workers")
  }

  test("Fig 12: latency stays roughly constant from SF 1k to SF 10k") {
    val small = LambadaSim.run(files, Queries.Q1Profile, LambadaConfig(1792, 1))
    val big   = LambadaSim.run(sf10k, Queries.Q1Profile, LambadaConfig(1792, 1))
    assert(big.workers == 3200)
    assert(big.latencySeconds < 1.6 * small.latencySeconds,
      "latency only grows via invocation effort and stragglers")
  }

  test("cost scales ~linearly with the dataset (10x files ~ 10x dollars)") {
    val small = LambadaSim.run(files, Queries.Q1Profile, LambadaConfig(1792, 1))
    val big   = LambadaSim.run(sf10k, Queries.Q1Profile, LambadaConfig(1792, 1))
    val ratio = big.dollars / small.dollars
    assert(ratio > 9.0 && ratio < 11.0, s"ratio=$ratio")
  }

  test("Q6 is much cheaper than Q1: most workers return after the footer") {
    val c1 = q1(LambadaConfig(1792, 1)).dollars
    val c6 = q6(LambadaConfig(1792, 1)).dollars
    assert(c6 < c1 / 3, s"q1=$c1 q6=$c6")
  }

  test("runs are deterministic in the seed") {
    val a = q1(LambadaConfig(1792, 1, seed = 9))
    val b = q1(LambadaConfig(1792, 1, seed = 9))
    assert(a.latencySeconds == b.latencySeconds && a.dollars == b.dollars)
  }

  test("the invocation makespan is included in the end-to-end latency") {
    val run = q1(LambadaConfig(1792, 1))
    assert(run.latencySeconds >
      run.invocationSeconds + run.workerSeconds.max * 0.9 + LambadaSim.DriverPollSeconds * 0.9)
  }

  test("median worker seconds sits in the slow class for Q1 (98 % selectivity)") {
    val run = q1(LambadaConfig(1792, 1))
    assert(run.medianWorkerSeconds > 2.0 && run.medianWorkerSeconds < 3.5)
  }
}
