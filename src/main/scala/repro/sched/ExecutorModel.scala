package repro.sched

import repro.model.{InstanceType, LambdaModel, Pricing, S3Model, VmModel, WorkerConfig}

/** Cost/latency of scanning a dataset once with a given resource strategy.
  * `latencySeconds` is wall-clock from job submission to completion;
  * `dollars` is what the job bills.
  */
final case class ScanEstimate(workers: Int, latencySeconds: Double, dollars: Double)

/** The paper's introductory simulation (Fig 1): job-scoped IaaS vs FaaS for a
  * single scan, and always-on IaaS vs usage-billed FaaS/QaaS as a function of
  * query frequency.
  *
  * This doubles as the "Spark executor model vs serverless task scheduling"
  * analysis: a job-scoped IaaS fleet is exactly a Spark cluster whose
  * executors must boot before any task runs (2 min), while FaaS schedules
  * each scan task as an independent function with a ~4 s start.
  */
object ExecutorModel {

  /** FaaS worker start-up assumed by the intro simulation (footnote 2). */
  val FaasStartupSeconds: Double = 4.0

  /** Worker size used by the intro simulation: 2 GiB. */
  val FaasWorker: WorkerConfig = WorkerConfig(2048)

  /** Job-scoped IaaS (Spark-executor style): boot `n` VMs, scan, terminate.
    * Billing is per-second of VM uptime including the boot.
    */
  def jobScopedIaas(bytes: Double, n: Int, tier: InstanceType = VmModel.C5nXlarge): ScanEstimate = {
    require(n >= 1, "need at least one instance")
    val scan    = bytes / (n * tier.scanBytesPerSecond)
    val latency = tier.startupSeconds + scan
    ScanEstimate(n, latency, n * latency / 3600.0 * tier.hourlyUsd)
  }

  /** Billed per-worker handler overhead beyond the scan itself. */
  val FaasBilledOverheadSeconds: Double = 0.5

  /** FaaS scan: invoke `n` workers (4 s), each scans its share from S3.
    * Billed per worker-second of execution plus invocations.
    */
  def faasScan(bytes: Double, n: Int): ScanEstimate = {
    require(n >= 1, "need at least one worker")
    val scan    = bytes / (n * S3Model.SustainedBytesPerSecond)
    val latency = FaasStartupSeconds + scan
    val dollars = n * FaasWorker.costFor(scan + FaasBilledOverheadSeconds) +
      n * Pricing.LambdaPerInvocation
    ScanEstimate(n, latency, dollars)
  }

  /** Fig 1a sweep: worker counts 1..256 instances vs 8..4096 functions. */
  def fig1aIaasWorkers: Seq[Int] = Seq(1, 2, 4, 8, 16, 32, 64, 128, 256)
  def fig1aFaasWorkers: Seq[Int] = Seq(8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

  /** Hourly cost of an always-on IaaS tier sized to answer `bytes` within
    * `targetSeconds` (Fig 1b's flat lines). Independent of query frequency.
    */
  def alwaysOnHourlyUsd(tier: InstanceType, bytes: Double, targetSeconds: Double): Double =
    VmModel.instancesForTarget(tier, bytes, targetSeconds) * tier.hourlyUsd

  /** Per-query FaaS dollars when sized for `targetSeconds` latency. */
  def faasPerQueryUsd(bytes: Double, targetSeconds: Double): Double = {
    val scanSeconds = math.max(targetSeconds - FaasStartupSeconds, 1.0)
    val n = math.ceil(bytes / (S3Model.SustainedBytesPerSecond * scanSeconds)).toInt
    faasScan(bytes, n).dollars
  }

  /** Per-query QaaS dollars: $5/TiB of input scanned. */
  def qaasPerQueryUsd(bytes: Double): Double = bytes / Pricing.TiB * Pricing.QaaSPerTiB

  /** Fig 1b: hourly cost of each strategy at `queriesPerHour` over `bytes`. */
  def fig1bHourlyUsd(bytes: Double, targetSeconds: Double, queriesPerHour: Double)
      : Map[String, Double] = Map(
    "iaas-dram" -> alwaysOnHourlyUsd(VmModel.R5_12xlarge, bytes, targetSeconds),
    "iaas-nvme" -> alwaysOnHourlyUsd(VmModel.I3_16xlarge, bytes, targetSeconds),
    "iaas-s3"   -> alwaysOnHourlyUsd(VmModel.C5n18xlarge, bytes, targetSeconds),
    "faas"      -> faasPerQueryUsd(bytes, targetSeconds) * queriesPerHour,
    "qaas"      -> qaasPerQueryUsd(bytes) * queriesPerHour,
  )

  /** Query frequency (queries/hour) above which FaaS becomes more expensive
    * than the cheapest always-on IaaS tier — the paper's "moderate query
    * load" break-even.
    */
  def faasIaasBreakEvenQueriesPerHour(bytes: Double, targetSeconds: Double): Double = {
    val cheapestIaas = Seq(VmModel.R5_12xlarge, VmModel.I3_16xlarge, VmModel.C5n18xlarge)
      .map(alwaysOnHourlyUsd(_, bytes, targetSeconds)).min
    cheapestIaas / faasPerQueryUsd(bytes, targetSeconds)
  }
}
