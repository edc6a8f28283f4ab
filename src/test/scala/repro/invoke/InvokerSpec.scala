package repro.invoke

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec
import repro.model.LambdaModel

class InvokerSpec extends AnyFunSuite with PropSpec {

  test("driver-only: 1000 workers take 3.4 s to 4.4 s to issue (Section 4.2)") {
    val times = LambdaModel.Regions.map(r => Invoker.driverOnlyIssueSeconds(1000, r))
    assert(times.min >= 3.3 && times.max <= 4.6, times)
  }

  test("driver-only: 4096 workers would take 13 s to 18 s (Fig 5 discussion)") {
    val times = LambdaModel.Regions.map(r => Invoker.driverOnlyIssueSeconds(4096, r))
    assert(times.min >= 13.0 && times.max <= 19.0, times)
  }

  test("two-level: last of 4096 invocations initiated far sooner than driver-only") {
    val tl = Invoker.twoLevel(4096, LambdaModel.Eu, cold = true)
    assert(tl.lastInitiatedAt < 3.0, "paper: ~2.5 s")
    assert(tl.lastInitiatedAt < Invoker.driverOnlyIssueSeconds(4096, LambdaModel.Eu) / 4)
  }

  test("two-level: all 4096 workers running in under 4 s cold (abstract: 4k in 3 s)") {
    val tl = Invoker.twoLevel(4096, LambdaModel.Eu, cold = true)
    assert(tl.makespan < 4.0)
    assert(tl.makespan < 3.5, "abstract claims 4k functions in ~3 s")
  }

  test("two-level produces exactly P workers with distinct ids 0..P-1") {
    for (p <- Seq(1, 2, 5, 17, 100, 1024, 4096)) {
      val tl = Invoker.twoLevel(p, LambdaModel.Eu)
      assert(tl.size == p)
      assert(tl.workers.map(_.id).sorted == (0 until p).toVector)
    }
  }

  test("two-level uses ~sqrt(P) first-generation workers (Section 4.2)") {
    val tl = Invoker.twoLevel(4096, LambdaModel.Eu)
    assert(tl.workers.count(_.generation == 1) == 64)
    assert(tl.workers.count(_.generation == 2) == 4032)
  }

  test("first-generation workers are invoked before they invoke children") {
    val tl = Invoker.twoLevel(256, LambdaModel.Eu)
    tl.workers.filter(_.generation == 1).foreach { w =>
      assert(w.initiatedAt < w.runningAt)
      assert(w.runningAt <= w.doneInvokingAt)
    }
  }

  test("children initiate only after their parent is running") {
    val tl      = Invoker.twoLevel(144, LambdaModel.Eu)
    val parents = tl.workers.filter(_.generation == 1)
    val minParentRunning = parents.map(_.runningAt).min
    tl.workers.filter(_.generation == 2).foreach { c =>
      assert(c.initiatedAt >= minParentRunning)
    }
  }

  test("one-level timeline is linear in P: 2x workers ~2x issue time") {
    val t1 = Invoker.oneLevel(1000, LambdaModel.Eu).lastInitiatedAt
    val t2 = Invoker.oneLevel(2000, LambdaModel.Eu).lastInitiatedAt
    assert(math.abs(t2 / t1 - 2.0) < 0.01)
  }

  test("two-level grows sublinearly: 4x workers much less than 4x makespan") {
    val t1 = Invoker.twoLevel(1024, LambdaModel.Eu).makespan
    val t4 = Invoker.twoLevel(4096, LambdaModel.Eu).makespan
    assert(t4 / t1 < 2.5)
  }

  test("cold start delays every worker versus warm start") {
    val cold = Invoker.twoLevel(256, LambdaModel.Eu, cold = true)
    val warm = Invoker.twoLevel(256, LambdaModel.Eu, cold = false)
    assert(cold.makespan > warm.makespan)
  }

  test("slower regions invoke more slowly") {
    val eu = Invoker.twoLevel(1024, LambdaModel.Eu).makespan
    val ap = Invoker.twoLevel(1024, LambdaModel.Ap).makespan
    assert(ap > eu)
  }

  checkProp("two-level timelines are well-formed for any P") {
    Prop.forAll(Gen.choose(1, 3000)) { p =>
      val tl = Invoker.twoLevel(p, LambdaModel.Eu)
      tl.size == p &&
        tl.workers.forall(w => w.initiatedAt > 0 && w.runningAt > w.initiatedAt) &&
        tl.makespan >= tl.lastInitiatedAt
    }
  }

  checkProp("two-level beats one-level makespan for large fleets") {
    Prop.forAll(Gen.choose(500, 5000)) { p =>
      Invoker.twoLevel(p, LambdaModel.Eu).makespan <=
        Invoker.oneLevel(p, LambdaModel.Eu).makespan + 1e-9
    }
  }

  test("timeline invokes up to 64 workers from the driver and more through the tree") {
    for (p <- Seq(1, 64, 65, 4096); cold <- Seq(false, true)) {
      val expected =
        if (p <= 64) Invoker.oneLevel(p, LambdaModel.Eu, cold = cold)
        else Invoker.twoLevel(p, LambdaModel.Eu, cold = cold)
      assert(Invoker.timeline(p, LambdaModel.Eu, cold) == expected, s"p=$p cold=$cold")
      assert(Invoker.makespan(p, LambdaModel.Eu, cold) == expected.makespan)
    }
  }
}
