package repro.model

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec
import repro.report.PaperNumbers

class LambdaModelSpec extends AnyFunSuite with PropSpec {

  test("1792 MiB gets exactly one vCPU (AWS resource model)") {
    assert(WorkerConfig(1792).cpuShare == 1.0)
  }

  test("3008 MiB with two threads reaches the paper's 1.67x (Fig 4)") {
    val r = WorkerConfig(3008).relativeThroughput(2)
    assert(math.abs(r - 1.679) < 0.01)
    assert(math.abs(r - repro.report.PaperNumbers.Fig4MaxRelativeThroughput) < 0.02)
  }

  test("a single thread never exceeds one vCPU no matter the memory (Fig 4)") {
    for (m <- Seq(1792, 2048, 3008)) {
      assert(WorkerConfig(m).relativeThroughput(1) == 1.0)
    }
  }

  test("below 1792 MiB throughput is proportionally lower for any thread count (Fig 4)") {
    for (m <- Seq(128, 256, 512, 1024); t <- Seq(1, 2)) {
      val r = WorkerConfig(m).relativeThroughput(t)
      assert(r <= m / 1792.0 + 1e-9, s"m=$m t=$t")
      assert(r > 0)
    }
  }

  test("a second thread on a <=1 vCPU worker only adds overhead (Fig 10a discussion)") {
    for (m <- Seq(512, 1024, 1792)) {
      assert(WorkerConfig(m).relativeThroughput(2) < WorkerConfig(m).relativeThroughput(1))
    }
  }

  test("a second thread helps once memory exceeds 1792 MiB") {
    assert(WorkerConfig(2048).relativeThroughput(2) > 1.0)
    assert(WorkerConfig(3008).relativeThroughput(2) > WorkerConfig(2048).relativeThroughput(2))
  }

  test("memory outside AWS's [128, 3008] MiB range is rejected") {
    intercept[IllegalArgumentException](WorkerConfig(64))
    intercept[IllegalArgumentException](WorkerConfig(4096))
  }

  test("small workers lose scan efficiency, 1 GiB and above do not") {
    assert(WorkerConfig(512).scanEfficiency < 1.0)
    assert(WorkerConfig(1024).scanEfficiency == 1.0)
    assert(WorkerConfig(3008).scanEfficiency == 1.0)
  }

  test("billed cost equals seconds times the per-second price") {
    assert(math.abs(WorkerConfig(2048).costFor(10.0) - 3.3e-4) < 1e-10)
  }

  test("Table 1: 128-thread concurrent rates match the paper in every region") {
    LambdaModel.Regions.foreach { r =>
      val (pMs, pRate, pIntra) = PaperNumbers.Table1(r.name)
      assert(r.singleInvokeSeconds * 1000 == pMs, r.name)
      assert(r.concurrentRate(LambdaModel.DriverInvokerThreads) == pRate, r.name)
      assert(r.workerInvokeRate == pIntra, r.name)
    }
  }

  test("Table 1: single-invocation latency grows with distance from Zurich") {
    val ms = LambdaModel.Regions.map(_.singleInvokeSeconds)
    assert(ms == ms.sorted, "eu < us < sa < ap")
  }

  test("with few threads the rate is thread-limited, not provider-limited") {
    val eu = LambdaModel.Eu
    assert(eu.concurrentRate(1) == 1 / eu.singleInvokeSeconds)
    assert(eu.concurrentRate(1) < eu.apiRateCap)
  }

  checkProp("concurrent rate is monotone in thread count and capped") {
    Prop.forAll(Gen.choose(1, 2048)) { t =>
      val r = LambdaModel.Eu.concurrentRate(t)
      r <= LambdaModel.Eu.apiRateCap + 1e-9 &&
        r <= t / LambdaModel.Eu.singleInvokeSeconds + 1e-9
    }
  }

  test("intra-region worker invocation rate is ~80/s in all regions (Table 1)") {
    LambdaModel.Regions.foreach(r => assert(r.workerInvokeRate >= 79 && r.workerInvokeRate <= 84))
  }

  test("cold starts cost more than warm starts and runs slow down ~20 %") {
    assert(LambdaModel.ColdStartSeconds > LambdaModel.WarmStartSeconds)
    assert(LambdaModel.ColdRunSlowdown > 1.0 && LambdaModel.ColdRunSlowdown <= 1.25)
  }

  checkProp("cpuShare is monotone in memory") {
    Prop.forAll(Gen.choose(128, 3007)) { m =>
      WorkerConfig(m).cpuShare < WorkerConfig(m + 1).cpuShare
    }
  }
}
