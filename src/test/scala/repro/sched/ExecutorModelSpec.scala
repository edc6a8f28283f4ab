package repro.sched

import org.scalatest.funsuite.AnyFunSuite

import repro.model.Pricing

class ExecutorModelSpec extends AnyFunSuite {

  private val tb = Pricing.TB

  test("Fig 1a: adding IaaS workers reduces latency with diminishing returns") {
    val lats = ExecutorModel.fig1aIaasWorkers.map(n => ExecutorModel.jobScopedIaas(tb, n).latencySeconds)
    lats.sliding(2).foreach { case Seq(a, b) => assert(b < a) }
    // Diminishing: latency approaches the 2 min start-up floor.
    assert(lats.last < 135 && lats.last > 120)
  }

  test("Fig 1a: adding FaaS workers reduces latency toward the 4 s start-up floor") {
    val lats = ExecutorModel.fig1aFaasWorkers.map(n => ExecutorModel.faasScan(tb, n).latencySeconds)
    lats.sliding(2).foreach { case Seq(a, b) => assert(b < a) }
    assert(lats.last < 10 && lats.last > 4)
  }

  test("Fig 1a: only FaaS reaches interactive latency on 1 TB") {
    val bestIaas = ExecutorModel.fig1aIaasWorkers
      .map(n => ExecutorModel.jobScopedIaas(tb, n).latencySeconds).min
    val bestFaas = ExecutorModel.fig1aFaasWorkers
      .map(n => ExecutorModel.faasScan(tb, n).latencySeconds).min
    assert(bestIaas > 120, "IaaS bounded below by VM start-up")
    assert(bestFaas < 10, "FaaS scans 1 TB interactively")
  }

  test("Fig 1a: cost-optimal IaaS is several times cheaper than FaaS (paper: up to ~10x)") {
    val cheapestIaas = ExecutorModel.fig1aIaasWorkers
      .map(n => ExecutorModel.jobScopedIaas(tb, n).dollars).min
    val cheapestFaas = ExecutorModel.fig1aFaasWorkers
      .map(n => ExecutorModel.faasScan(tb, n).dollars).min
    val factor = cheapestFaas / cheapestIaas
    assert(factor > 4.0 && factor < 12.0, s"factor=$factor")
  }

  test("Fig 1a: IaaS cost grows with fleet size (start-up dominates)") {
    val costs = ExecutorModel.fig1aIaasWorkers.map(n => ExecutorModel.jobScopedIaas(tb, n).dollars)
    costs.sliding(2).foreach { case Seq(a, b) => assert(b > a) }
  }

  test("Fig 1b: always-on hourly cost is flat in query frequency, tiers ordered by bandwidth need") {
    val m = ExecutorModel.fig1bHourlyUsd(tb, 10.0, queriesPerHour = 1)
    val m2 = ExecutorModel.fig1bHourlyUsd(tb, 10.0, queriesPerHour = 100)
    assert(m("iaas-dram") == m2("iaas-dram"))
    assert(m("iaas-dram") < m("iaas-nvme") && m("iaas-nvme") < m("iaas-s3"))
  }

  test("Fig 1b: FaaS and QaaS cost grows linearly with query frequency") {
    val c1  = ExecutorModel.fig1bHourlyUsd(tb, 10.0, 1)("faas")
    val c10 = ExecutorModel.fig1bHourlyUsd(tb, 10.0, 10)("faas")
    assert(math.abs(c10 / c1 - 10.0) < 1e-6)
  }

  test("Fig 1b: at sporadic use FaaS is the cheapest of all strategies") {
    val m = ExecutorModel.fig1bHourlyUsd(tb, 10.0, queriesPerHour = 0.1)
    assert(m("faas") == m.values.min)
  }

  test("Fig 1b: a moderate query load flips the advantage to always-on IaaS") {
    val breakEven = ExecutorModel.faasIaasBreakEvenQueriesPerHour(tb, 10.0)
    assert(breakEven > 5 && breakEven < 100,
      s"break-even at $breakEven q/h should be a 'moderate' load")
    val beyond = ExecutorModel.fig1bHourlyUsd(tb, 10.0, breakEven * 2)
    assert(beyond("faas") > beyond.values.min)
    // Fig 1b's busiest column: an always-on IaaS tier is the cheapest.
    val busy = ExecutorModel.fig1bHourlyUsd(tb, 10.0, 100)
    assert(busy.minBy(_._2)._1.startsWith("iaas"), busy)
  }

  test("Fig 1b: QaaS is always pricier per query than FaaS on this scan") {
    assert(ExecutorModel.qaasPerQueryUsd(tb) > ExecutorModel.faasPerQueryUsd(tb, 10.0))
  }

  test("per-query QaaS dollars equal $5/TiB of input") {
    assert(math.abs(ExecutorModel.qaasPerQueryUsd(Pricing.TiB) - 5.0) < 1e-9)
  }

  test("invalid worker counts are rejected") {
    intercept[IllegalArgumentException](ExecutorModel.jobScopedIaas(tb, 0))
    intercept[IllegalArgumentException](ExecutorModel.faasScan(tb, 0))
  }
}
