package repro.exchange

import repro.invoke.Invoker
import repro.model.{LambdaModel, Pricing, S3Model}

/** Wall-clock outcome of one simulated distributed exchange. Per-round
  * vectors (round, then worker) feed Fig 13; `readSeconds(0)` is the input read.
  */
final case class ExchangeRun(
    totalSeconds: Double,
    fastestWorkerSeconds: Double,
    writeSeconds: Vector[Vector[Double]],
    waitSeconds: Vector[Vector[Double]],
    readSeconds: Vector[Vector[Double]],
) {
  private def median(v: Vector[Double]): Double = { val s = v.sorted; s(s.size / 2) }
  /** Slowest-to-median ratio of the first write phase (Fig 13 right side). */
  def writeTailRatio: Double = writeSeconds(0).max / median(writeSeconds(0))
  /** Fastest observation of each phase (a wait lasts at least one S3 round-trip). */
  def phaseFastest: Map[String, Double] = (("read-input" -> readSeconds(0).min) +:
    writeSeconds.indices.flatMap(r => Seq(s"write-${r + 1}" -> writeSeconds(r).min,
      s"wait-${r + 1}" -> math.max(waitSeconds(r).min, S3Model.RequestLatencySeconds),
      s"read-${r + 1}" -> readSeconds(r + 1).min))).toMap
  /** Sum of the fastest observation of each phase — Fig 13's informal lower
    * bound on the end-to-end latency.
    */
  def lowerBoundSeconds: Double = phaseFastest.values.sum
}

/** Runtime simulation of the two-level S3 exchange and its published
  * competitors (Table 3, Fig 13).
  *
  * The model: every worker moves its share through five equal data phases
  * (read input, write/read level 1, write/read level 2) at the per-worker S3
  * bandwidth; write phases carry an exponential straggler tail whose scale
  * grows once the fleet's aggregate demand exceeds S3's backend bandwidth
  * (the paper's 3 TB run: slowest writer ~4x the median, over half the time
  * spent waiting); barriers propagate the group maximum between rounds; and
  * each round pays a coordination cost proportional to the fleet size
  * (result-queue fan-in, LIST processing, polling).
  */
object ExchangeSim {

  /** Per-worker S3 bandwidth during the exchange (2 GiB workers). */
  val PerWorkerBytesPerSecond: Double = S3Model.SustainedMiBps * Pricing.MiB

  /** Aggregate S3 backend bandwidth available to one fleet; only the demand
    * *ratio* against it matters (it drives the straggler tail).
    */
  val S3AggregateBytesPerSecond: Double = 110e9

  /** Baseline exponential tail scale of write phases (uncontended). */
  val JitterBase: Double = 0.03

  /** Tail-scale growth per unit of excess demand ratio (contended). */
  val JitterContention: Double = 0.33

  /** Read phases show no significant tails (Section 5.5). */
  val ReadJitter: Double = 0.01

  /** Per-round coordination cost: seconds per worker in the fleet. */
  val CoordSecondsPerWorker: Double = 0.003

  /** Driver-side result collection at the end. */
  val CollectSeconds: Double = 0.3

  /** Demand ratio of `p` workers against the S3 backend. */
  def demandRatio(p: Int): Double = p * PerWorkerBytesPerSecond / S3AggregateBytesPerSecond

  private def expDraw(rng: scala.util.Random): Double = -math.log(1.0 - rng.nextDouble())

  /** Lambada's TwoLevelExchange on `p` workers over `dataBytes`, round by round. */
  def lambadaTwoLevel(p: Int, dataBytes: Double, seed: Long = 7L): ExchangeRun = {
    require(p >= 4, "exchange needs at least 4 workers")
    val levels = 2
    val grid   = Grid(p, levels)
    val phase  = dataBytes / p / PerWorkerBytesPerSecond
    val theta  = JitterBase + JitterContention * math.max(0.0, demandRatio(p) - 1.0)
    val coord  = CoordSecondsPerWorker * p

    // Every Table 3 and Fig 13 number depends on this draw order: each
    // worker's levels + 1 reads, then each round's p writes.
    val rng   = new scala.util.Random(seed)
    val read  = Vector.fill(p, levels + 1)(phase * (1.0 + ReadJitter * expDraw(rng))).transpose
    val write = Vector.fill(levels, p)(phase * (1.0 + theta * expDraw(rng)))

    val starts = Invoker.timeline(p, LambdaModel.Eu, cold = false).workers
      .sortBy(_.id).map(_.runningAt)

    // Round d: write, wait for the slowest writer of the barrier group (the
    // workers that differ only in coordinate d) plus coordination, then read.
    val inputRead = Vector.tabulate(p)(i => starts(i) + read(0)(i))
    val (wait, done) = (0 until levels).foldLeft((Vector.empty[Vector[Double]], inputRead)) {
      case ((waits, readDone), d) =>
        def group(i: Int): Int = grid.withCoord(i, d, 0)
        val wDone = Vector.tabulate(p)(i => readDone(i) + write(d)(i))
        val gMax  = (0 until p).groupMapReduce(group)(wDone)(math.max)
        val wt    = Vector.tabulate(p)(i => gMax(group(i)) + coord - wDone(i))
        (waits :+ wt, Vector.tabulate(p)(i => wDone(i) + wt(i) + read(d + 1)(i)))
    }

    ExchangeRun(
      totalSeconds = done.max + CollectSeconds,
      fastestWorkerSeconds = Vector.tabulate(p)(i => done(i) - starts(i)).min,
      writeSeconds = write,
      waitSeconds = wait,
      readSeconds = read,
    )
  }

  // -----------------------------------------------------------------------
  // Published baselines (Table 3).
  // -----------------------------------------------------------------------

  /** Pocket-class worker throughput: PyWren-style Python workers move data
    * at ~21 MiB/s per worker (calibrated to Pocket's published 250-worker
    * VM-storage time of 58 s over three data passes).
    */
  val PocketWorkerBytesPerSecond: Double = 21.0 * Pricing.MiB

  /** PyWren fleet start-up (no invocation tree). */
  val PocketStartupSeconds: Double = 3.0

  /** Pocket's shuffle through its VM-based ephemeral storage: a single-level
    * exchange (read input, write to storage, read back) with no S3 request
    * throttling because the storage tier is provisioned.
    */
  def pocketVm(p: Int, dataBytes: Double, seed: Long = 11L): Double = {
    val phase = dataBytes / p / PocketWorkerBytesPerSecond
    val rng   = new scala.util.Random(seed)
    val tails = Vector.fill(p)(1.0 + JitterBase * expDraw(rng))
    PocketStartupSeconds + 2 * phase + phase * tails.max
  }

  /** Penalty factor applied to throttled request time (503 + backoff). */
  val ThrottleRetryInflation: Double = 1.5

  /** Pocket's S3 baseline: the same single-level exchange but through S3,
    * paying P^2 PUTs and GETs against the per-prefix rate limits — the
    * configuration that previous work concluded does not scale.
    */
  def pocketS3Baseline(p: Int, dataBytes: Double, seed: Long = 13L): Double = {
    val requests = p.toLong * p
    val throttleSeconds = ThrottleRetryInflation *
      (requests / S3Model.PutRateLimitPerSecond + requests / S3Model.GetRateLimitPerSecond)
    pocketVm(p, dataBytes, seed) + throttleSeconds
  }

  /** Locus: dynamic worker count, hybrid fast/slow storage with a merge
    * round — five data passes at ~26 MiB/s plus fixed coordination.
    * Returns (fastest, slowest) over its dynamic worker range, reproducing
    * the published 80 s to 140 s band on 100 GB.
    */
  val LocusWorkerBytesPerSecond: Double = 26.0 * Pricing.MiB
  val LocusCoordinationSeconds: Double = 15.0

  def locus(dataBytes: Double, workerRange: (Int, Int) = (150, 300)): (Double, Double) = {
    def t(w: Int): Double =
      LocusCoordinationSeconds + 5 * dataBytes / w / LocusWorkerBytesPerSecond
    (t(workerRange._2), t(workerRange._1))
  }
}
