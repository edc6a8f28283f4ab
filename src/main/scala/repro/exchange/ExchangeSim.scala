package repro.exchange

import repro.invoke.Invoker
import repro.model.{LambdaModel, Pricing, S3Model}

/** Wall-clock outcome of one simulated distributed exchange. Per-phase
  * vectors are indexed by worker and feed the Fig 13 breakdown.
  */
final case class ExchangeRun(
    system: String,
    workers: Int,
    dataBytes: Double,
    totalSeconds: Double,
    fastestWorkerSeconds: Double,
    phaseFastest: Map[String, Double],
    writeSeconds1: Vector[Double],
    writeSeconds2: Vector[Double],
    waitSeconds1: Vector[Double],
    waitSeconds2: Vector[Double],
) {
  private def median(v: Vector[Double]): Double = { val s = v.sorted; s(s.size / 2) }
  /** Slowest-to-median ratio of the first write phase (Fig 13 right side). */
  def writeTailRatio: Double = writeSeconds1.max / median(writeSeconds1)
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

  /** Lambada's TwoLevelExchange on `p` workers over `dataBytes`. */
  def lambadaTwoLevel(p: Int, dataBytes: Double, seed: Long = 7L): ExchangeRun = {
    require(p >= 4, "exchange needs at least 4 workers")
    val s     = math.ceil(math.sqrt(p.toDouble)).toInt
    val phase = dataBytes / p / PerWorkerBytesPerSecond
    val r     = demandRatio(p)
    val theta = JitterBase + JitterContention * math.max(0.0, r - 1.0)
    val coord = CoordSecondsPerWorker * p

    val rng     = new scala.util.Random(seed)
    val readJ   = Vector.fill(p, 3)(1.0 + ReadJitter * expDraw(rng))
    val writeJ1 = Vector.fill(p)(1.0 + theta * expDraw(rng))
    val writeJ2 = Vector.fill(p)(1.0 + theta * expDraw(rng))

    val starts = Invoker.timeline(p, LambdaModel.Eu, cold = false).workers
      .sortBy(_.id).map(_.runningAt)

    val group1 = (0 until p).groupBy(_ % s) // same first coordinate
    val group2 = (0 until p).groupBy(_ / s) // same second coordinate

    val readDone  = Vector.tabulate(p)(i => starts(i) + phase * readJ(i)(0))
    val w1        = Vector.tabulate(p)(i => phase * writeJ1(i))
    val w1Done    = Vector.tabulate(p)(i => readDone(i) + w1(i))
    val g1Max     = group1.map { case (g, ms) => g -> ms.map(w1Done).max }
    val wait1     = Vector.tabulate(p)(i => g1Max(i % s) + coord - w1Done(i))
    val r1Done    = Vector.tabulate(p)(i => w1Done(i) + wait1(i) + phase * readJ(i)(1))
    val w2        = Vector.tabulate(p)(i => phase * writeJ2(i))
    val w2Done    = Vector.tabulate(p)(i => r1Done(i) + w2(i))
    val g2Max     = group2.map { case (g, ms) => g -> ms.map(w2Done).max }
    val wait2     = Vector.tabulate(p)(i => g2Max(i / s) + coord - w2Done(i))
    val done      = Vector.tabulate(p)(i => w2Done(i) + wait2(i) + phase * readJ(i)(2))

    ExchangeRun(
      system = "lambada-2l",
      workers = p,
      dataBytes = dataBytes,
      totalSeconds = done.max + CollectSeconds,
      fastestWorkerSeconds = Vector.tabulate(p)(i => done(i) - starts(i)).min,
      phaseFastest = Map(
        "read-input" -> (0 until p).map(i => phase * readJ(i)(0)).min,
        "write-1"    -> w1.min,
        "wait-1"     -> math.max(wait1.min, S3Model.RequestLatencySeconds),
        "read-1"     -> (0 until p).map(i => phase * readJ(i)(1)).min,
        "write-2"    -> w2.min,
        "wait-2"     -> math.max(wait2.min, S3Model.RequestLatencySeconds),
        "read-2"     -> (0 until p).map(i => phase * readJ(i)(2)).min,
      ),
      writeSeconds1 = w1,
      writeSeconds2 = w2,
      waitSeconds1 = wait1,
      waitSeconds2 = wait2,
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
