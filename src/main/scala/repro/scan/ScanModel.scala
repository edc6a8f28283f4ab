package repro.scan

import repro.model.{Pricing, S3Model, WorkerConfig}
import repro.model.Pricing.MiB

/** What a query needs from the table: the columns it touches, its sort-key
  * predicate interval (normalized to [0, 1]; [0, 1] itself means "no
  * prunable predicate"), and its row selectivity (used by the QaaS cost
  * models and reporting).
  */
final case class QueryProfile(
    name: String,
    usedColumns: Set[String],
    keyLo: Double,
    keyHi: Double,
    rowSelectivity: Double,
) {
  require(keyLo <= keyHi, "predicate interval inverted")
  require(rowSelectivity >= 0 && rowSelectivity <= 1, "selectivity out of range")
  def usedFraction(columnFractions: Map[String, Double]): Double =
    usedColumns.toSeq.map(c => columnFractions.getOrElse(c, 0.0)).sum
}

/** Outcome of one serverless worker scanning its share of files. */
final case class WorkerScan(
    seconds: Double,
    getRequests: Long,
    filesPruned: Int,
    filesScanned: Int,
    bytesDownloaded: Long,
) {
  def requestDollars: Double = getRequests * Pricing.S3GetPerRequest
}

/** Model of the S3-based Parquet scan operator (Section 4.3.2, Fig 8).
  *
  * Downloads of one row group overlap the decompression of the previous one
  * (level-3 concurrency in the paper), so per-file time is
  * max(network, cpu); metadata for all files is prefetched by a dedicated
  * thread, so only the first footer round-trip is visible. Scanning
  * GZIP-compressed Parquet is CPU-bound at one vCPU (Section 5.2), which
  * pins the decompress+scan rate to ~the network bandwidth.
  */
object ScanModel {

  /** GZIP decompress + scan throughput per vCPU, in compressed MiB/s. */
  val CpuMiBpsPerVCpu: Double = 85.0

  /** Wall time of a worker whose every row group was pruned: footer fetch,
    * min/max check, empty-result post (the 100–200 ms class of Fig 11).
    */
  val PrunedFileSeconds: Double = 0.10

  /** Fixed per-invocation handler time (event handler, plan decode, SQS
    * result post) — billed Lambda time beyond the scan itself.
    */
  val WorkerOverheadSeconds: Double = 0.05

  /** Range-request size the operator uses for column chunk downloads. */
  val DownloadChunkBytes: Long = 8L * 1024 * 1024

  /** One worker scans `files` for `profile` with configuration `config`. */
  def workerScan(
      files: Seq[ParquetFile],
      profile: QueryProfile,
      config: WorkerConfig,
  ): WorkerScan = {
    require(files.nonEmpty, "worker needs at least one file")
    val net = S3Model.sustainedMiBps(config.memoryMiB)
    // Decompression may use the second hardware thread on >1-vCPU workers.
    val cpuRate =
      CpuMiBpsPerVCpu * config.relativeThroughput(2) * config.scanEfficiency

    var seconds  = S3Model.RequestLatencySeconds // first footer round-trip; rest prefetched
    var requests = 0L
    var pruned   = 0
    var scanned  = 0
    var bytes    = 0L
    files.foreach { f =>
      requests += 1 // footer
      val surviving = f.prune(profile.keyLo, profile.keyHi)
      if (surviving.isEmpty) {
        pruned += 1
        seconds += PrunedFileSeconds
      } else {
        scanned += 1
        val colBytes = surviving.map(_.bytesOf(profile.usedColumns)).sum
        bytes += colBytes
        val download = (colBytes / MiB) / net
        val compute  = (colBytes / MiB) / cpuRate
        seconds += math.max(download, compute)
        // One request per column chunk, more if a chunk exceeds the range size.
        requests += surviving.iterator.flatMap(_.chunks)
          .filter(c => profile.usedColumns.contains(c.column))
          .map(c => math.max(1L, S3Model.requestCount(c.bytes, DownloadChunkBytes)))
          .sum
      }
    }
    WorkerScan(seconds + WorkerOverheadSeconds, requests, pruned, scanned, bytes)
  }

  /** One row of the Fig 7 chunk-size experiment: download a 1 GB object with
    * `chunkMiB` ranges on `connections` connections; report bandwidth, the
    * GET dollars of 1000 such scans, and the ratio of request cost to the
    * worker-runtime cost of the same scan (the annotations in Fig 7).
    */
  final case class ChunkSweepRow(
      chunkMiB: Double,
      connections: Int,
      bandwidthMiBps: Double,
      requestUsdPer1000: Double,
      requestToWorkerCostRatio: Double,
  )

  def chunkSizeSweep(
      chunksMiB: Seq[Double] = Seq(0.25, 0.5, 1, 2, 4, 8, 16, 32),
      connections: Seq[Int] = Seq(1, 2, 4, 8),
      objectBytes: Long = 1_000_000_000L,
      memoryMiB: Int = 3008,
  ): Seq[ChunkSweepRow] =
    for {
      c <- chunksMiB
      k <- connections
    } yield {
      val chunkBytes = (c * MiB).toLong
      val bw         = S3Model.scanMiBps(c, k, memoryMiB)
      val seconds    = (objectBytes / MiB) / bw
      val reqUsd     = S3Model.requestDollars(objectBytes, chunkBytes)
      val workerUsd  = Pricing.lambdaPerSecond(memoryMiB) * seconds
      ChunkSweepRow(c, k, bw, reqUsd * 1000, reqUsd / workerUsd)
    }
}
