package repro.model

import Pricing.MiB

/** Performance and cost model of Amazon S3 as observed from Lambda workers
  * (Section 4.3.1, Figs 6 and 7).
  *
  * The model is a classic latency+bandwidth pipe per connection, a per-worker
  * sustained-bandwidth cap with a short burst window for small objects, and
  * per-bucket request-rate limits. All effects the paper reports emerge from
  * these: a single connection needs ~16 MB chunks to saturate, four
  * connections saturate at 1 MB chunks, small objects can burst to ~300 MiB/s
  * on large workers, and request dollars dominate scans with tiny chunks.
  */
object S3Model {

  /** Stable per-worker ingress limit for large files (Fig 6a): ~90 MiB/s. */
  val SustainedMiBps: Double = 90.0

  /** The same limit in bytes/s: the scan rate of a 2 GiB worker in Fig 1's
    * FaaS simulation and the per-worker bandwidth of the exchange sim.
    */
  val SustainedBytesPerSecond: Double = SustainedMiBps * MiB

  /** Workers under 1 GiB see slightly lower ingress bandwidth (Fig 6a). */
  val SmallWorkerMiBps: Double = 72.0

  /** Credit-based burst ceiling for short transfers (Fig 6b). */
  val BurstMiBps: Double = 300.0

  /** The burst window is "a small number of seconds" (Section 4.3.1). */
  val BurstSeconds: Double = 2.0

  /** First-byte latency of one S3 request. */
  val RequestLatencySeconds: Double = 0.025

  /** Request-rate limits per bucket+prefix (writes / reads), July 2018. */
  val PutRateLimitPerSecond: Double = 3500.0
  val GetRateLimitPerSecond: Double = 5500.0
  /** Historic limits before July 2018 (Section 4.4.1). */
  val HistoricPutRateLimit: Double = 300.0
  val HistoricGetRateLimit: Double = 800.0

  /** Sustained per-worker ingress bandwidth in MiB/s for a worker size. */
  def sustainedMiBps(memoryMiB: Int): Double =
    if (memoryMiB < 1024) SmallWorkerMiBps else SustainedMiBps

  /** Throughput of a single connection fetching `chunkMiB`-sized ranges:
    * each request pays one round-trip before streaming at link speed.
    */
  def connectionMiBps(chunkMiB: Double, memoryMiB: Int = 3008): Double = {
    require(chunkMiB > 0, "chunk size must be positive")
    val link = sustainedMiBps(memoryMiB)
    chunkMiB / (RequestLatencySeconds + chunkMiB / link)
  }

  /** Effective scan bandwidth with `connections` parallel range readers,
    * capped by the worker's sustained limit (Fig 7's bandwidth curves).
    */
  def scanMiBps(chunkMiB: Double, connections: Int, memoryMiB: Int = 3008): Double = {
    require(connections >= 1, "need at least one connection")
    math.min(connections * connectionMiBps(chunkMiB, memoryMiB), sustainedMiBps(memoryMiB))
  }

  /** Observed bandwidth for *small* objects (Fig 6b): short transfers ride the
    * burst credit, but only with several concurrent connections and only on
    * workers large enough to have been granted burst credit.
    */
  def smallObjectMiBps(objectMiB: Double, connections: Int, memoryMiB: Int): Double = {
    val burstCeiling =
      if (memoryMiB >= 2048) BurstMiBps
      else if (memoryMiB >= 1024) 180.0
      else sustainedMiBps(memoryMiB)
    val perConn = connectionMiBps(objectMiB, memoryMiB = 3008)
    val transferSeconds = objectMiB * connections / math.max(perConn * connections, 1e-9)
    val ceiling = if (transferSeconds <= BurstSeconds) burstCeiling else sustainedMiBps(memoryMiB)
    math.min(connections * perConn, ceiling)
  }

  /** Number of GET requests to download `bytes` with `chunkBytes` ranges. */
  def requestCount(bytes: Long, chunkBytes: Long): Long = {
    require(chunkBytes > 0, "chunk size must be positive")
    (bytes + chunkBytes - 1) / chunkBytes
  }

  /** Seconds to download `bytes` with given chunking and parallelism. */
  def downloadSeconds(bytes: Long, chunkBytes: Long, connections: Int, memoryMiB: Int = 3008): Double =
    (bytes / MiB) / scanMiBps(chunkBytes / MiB, connections, memoryMiB)

  /** Dollars of GET requests to download `bytes` with `chunkBytes` ranges. */
  def requestDollars(bytes: Long, chunkBytes: Long): Double =
    requestCount(bytes, chunkBytes) * Pricing.S3GetPerRequest
}
