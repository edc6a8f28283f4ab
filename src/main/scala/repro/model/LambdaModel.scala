package repro.model

/** Resource model of a single AWS Lambda function instance.
  *
  * AWS allocates CPU proportionally to the configured memory: a function with
  * 1792 MiB gets exactly one vCPU, larger functions proportionally more
  * (Section 4.1, confirmed by the paper's Fig 4 microbenchmark: the largest
  * 3008 MiB worker reaches 1.67x the single-vCPU baseline with two threads).
  */
final case class WorkerConfig(memoryMiB: Int) {
  require(memoryMiB >= 128 && memoryMiB <= 3008,
    s"AWS Lambda memory must be within [128, 3008] MiB, got $memoryMiB")

  /** Fraction of vCPUs allocated to this function (1792 MiB == 1 vCPU). */
  def cpuShare: Double = memoryMiB / LambdaModel.MiBPerVCpu

  /** Relative compute throughput vs. the 1-vCPU baseline when running
    * `threads` compute threads (Fig 4).
    *
    * A single thread can never exceed one vCPU; more threads unlock the
    * remaining share on >1792 MiB workers. Multi-threading on a share <= 1
    * only adds scheduling overhead (the paper observes this as Q1 getting
    * *marginally cheaper* from 512 to 1792 MiB, Fig 10a).
    */
  def relativeThroughput(threads: Int): Double = {
    require(threads >= 1, "at least one thread")
    val raw = math.min(cpuShare, threads.toDouble)
    val overhead =
      if (threads > 1 && cpuShare <= 1.0) LambdaModel.OversubscribedThreadEfficiency
      else 1.0
    raw * overhead
  }

  /** Memory-pressure efficiency of heavy scans (GZIP window + runtime
    * footprint): small workers lose a little throughput beyond the pure CPU
    * scaling. Calibrated so the 512 MiB configuration of Fig 10a is both
    * slower *and* slightly more expensive than 1792 MiB.
    */
  def scanEfficiency: Double =
    if (memoryMiB < 1024) LambdaModel.SmallMemoryScanEfficiency else 1.0

  /** Billed dollars for `seconds` of execution. */
  def costFor(seconds: Double): Double = Pricing.lambdaPerSecond(memoryMiB) * seconds
}

/** Invocation characteristics of one AWS region as seen from the paper's
  * driver in Zurich (Table 1). `singleInvokeSeconds` is the network
  * round-trip of one invocation; `apiRateCap` is the provider-side throttle
  * on concurrent invocations; `workerInvokeRate` is the rate at which one
  * already-running worker can invoke further workers from inside the region.
  */
final case class Region(
    name: String,
    singleInvokeSeconds: Double,
    apiRateCap: Double,
    workerInvokeRate: Double,
) {
  /** Achievable invocation rate from the driver with `threads` concurrent
    * invoker threads: thread-limited pipelining, capped by the provider.
    * (Emergent quantity behind Table 1's "concurrent inv. rate" row.)
    */
  def concurrentRate(threads: Int): Double =
    math.min(threads / singleInvokeSeconds, apiRateCap)
}

object LambdaModel {
  /** AWS's documented proportionality constant: 1792 MiB == 1 vCPU. */
  val MiBPerVCpu: Double = 1792.0

  /** Container start penalties: cold includes code + dependency-layer load. */
  val ColdStartSeconds: Double = 0.45
  val WarmStartSeconds: Double = 0.05

  /** Cold runs execute ~20 % slower end-to-end (Section 5.2). */
  val ColdRunSlowdown: Double = 1.2

  /** Efficiency loss of running 2 threads on <=1 vCPU (Fig 10a discussion). */
  val OversubscribedThreadEfficiency: Double = 0.97

  /** Throughput retained by <1 GiB workers on heavy scans (see WorkerConfig). */
  val SmallMemoryScanEfficiency: Double = 0.85

  /** Number of driver-side invoker threads used throughout the paper. */
  val DriverInvokerThreads: Int = 128

  /** Intra-region invocation round-trip (worker invoking worker). */
  val IntraRegionInvokeSeconds: Double = 0.03

  /** Table 1 regions: measured single-invocation latency from Zurich, the
    * provider-side rate cap, and the intra-region worker-to-worker rate.
    */
  val Eu: Region = Region("eu", 0.036, 294.0, 81.0)
  val Us: Region = Region("us", 0.363, 276.0, 79.0)
  val Sa: Region = Region("sa", 0.474, 243.0, 84.0)
  val Ap: Region = Region("ap", 0.536, 222.0, 81.0)
  val Regions: Seq[Region] = Seq(Eu, Us, Sa, Ap)
}
