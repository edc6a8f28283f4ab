package repro.core

import repro.invoke.Invoker
import repro.model.{LambdaModel, Pricing, Region, WorkerConfig}
import repro.scan.{ParquetFile, ParquetLayout, QueryProfile, ScanModel, WorkerScan}

/** One Lambada query execution configuration (the knobs of Section 5.2):
  * worker memory `M`, files per worker `F`, target region, cold vs hot.
  */
final case class LambadaConfig(
    memoryMiB: Int = 1792,
    filesPerWorker: Int = 1,
    region: Region = LambdaModel.Eu,
    cold: Boolean = false,
    seed: Long = 42L,
) {
  def worker: WorkerConfig = WorkerConfig(memoryMiB)
}

/** Outcome of one simulated end-to-end query. */
final case class QueryRun(
    query: String,
    config: LambadaConfig,
    workers: Int,
    latencySeconds: Double,
    dollars: Double,
    workerSeconds: Vector[Double],
    getRequests: Long,
    prunedWorkers: Int,
    invocationSeconds: Double,
) {
  def medianWorkerSeconds: Double = {
    val s = workerSeconds.sorted
    s(s.size / 2)
  }
}

/** End-to-end simulation of a Lambada query (driver → invocation tree →
  * parallel worker scans → SQS result collection), on top of the invocation
  * and scan models. Per-worker processing times are *heterogeneous*: they
  * emerge from which files each worker holds and whether min/max pruning
  * eliminates them (Fig 11's bimodal distribution).
  */
object LambadaSim {

  /** Driver-side result collection from the SQS queue (Section 5.1: the
    * end-to-end latency includes "fetching the results from the result
    * queue").
    */
  val DriverPollSeconds: Double = 2.0

  /** SQS price per message — two messages per worker (post + poll). */
  val SqsPerMessage: Double = 0.40 / 1e6

  /** Multiplicative per-worker execution jitter (stragglers). Exponential
    * tail: the *maximum* over W workers grows like 0.04 ln W, matching the
    * paper's "higher likelihood of stragglers" on bigger fleets while
    * leaving medians untouched.
    */
  private def jitter(seed: Long, worker: Int): Double = {
    val rng = new scala.util.Random(seed * 1000003L + worker)
    0.04 * -math.log(1.0 - rng.nextDouble())
  }

  /** Run `profile` over `files` with `config`. */
  def run(
      files: Vector[ParquetFile],
      profile: QueryProfile,
      config: LambadaConfig,
      columnFractions: Map[String, Double] = ParquetLayout.LineitemColumnFractions,
  ): QueryRun = {
    require(files.nonEmpty, "no input files")
    val groups  = files.grouped(config.filesPerWorker).toVector
    val workers = groups.size
    val slowdown = if (config.cold) LambdaModel.ColdRunSlowdown else 1.0

    val scans: Vector[WorkerScan] =
      groups.map(g => ScanModel.workerScan(g, profile, config.worker, columnFractions))
    val billedSeconds: Vector[Double] = scans.zipWithIndex.map { case (s, i) =>
      s.seconds * slowdown * (1.0 + jitter(config.seed, i))
    }

    val timeline = Invoker.timeline(workers, config.region, config.cold)
    // Workers start as their invocation lands; query ends when the last one
    // posts its result and the driver drains the queue.
    val finishes = timeline.workers.sortBy(_.id).map(_.runningAt)
      .zip(billedSeconds).map { case (start, dur) => start + dur }
    val latency = finishes.max + DriverPollSeconds

    val workerUsd  = billedSeconds.map(config.worker.costFor).sum
    val requestUsd = scans.map(_.requestDollars).sum
    val invokeUsd  = workers * Pricing.LambdaPerInvocation
    val sqsUsd     = 2.0 * workers * SqsPerMessage

    QueryRun(
      query = profile.name,
      config = config,
      workers = workers,
      latencySeconds = latency,
      dollars = workerUsd + requestUsd + invokeUsd + sqsUsd,
      workerSeconds = billedSeconds,
      getRequests = scans.map(_.getRequests).sum,
      prunedWorkers = scans.count(s => s.filesScanned == 0),
      invocationSeconds = timeline.makespan,
    )
  }

  /** The Fig 10 sweep: hot and cold runs over memory sizes and files/worker. */
  def workerConfigSweep(
      files: Vector[ParquetFile],
      profile: QueryProfile,
      memories: Seq[Int] = Seq(512, 1024, 1792, 2048, 3008),
      filesPerWorker: Seq[Int] = Seq(1, 2, 4),
      columnFractions: Map[String, Double] = ParquetLayout.LineitemColumnFractions,
  ): Seq[(QueryRun, QueryRun)] =
    for {
      m <- memories
      f <- filesPerWorker
    } yield {
      val cold = run(files, profile, LambadaConfig(m, f, cold = true), columnFractions)
      val hot  = run(files, profile, LambadaConfig(m, f, cold = false), columnFractions)
      (cold, hot)
    }
}
