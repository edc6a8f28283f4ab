package repro.exchange

import repro.model.Pricing

/** One of the paper's exchange algorithm variants (Table 2's rows). */
final case class ExchangeAlgo(levels: Int, writeCombining: Boolean) {
  require(levels >= 1, "need at least one level")
  def label: String = s"${levels}l" + (if (writeCombining) "-wc" else "")
}

/** Closed-form request-count and dollar cost models of the S3-based exchange
  * algorithms — Table 2 and Fig 9. The counts are exactly what
  * [[ServerlessExchange]] issues (tests assert the two agree).
  */
object ExchangeModel {

  val Algorithms: Seq[ExchangeAlgo] = Seq(
    ExchangeAlgo(1, writeCombining = false), ExchangeAlgo(1, writeCombining = true),
    ExchangeAlgo(2, writeCombining = false), ExchangeAlgo(2, writeCombining = true),
    ExchangeAlgo(3, writeCombining = false), ExchangeAlgo(3, writeCombining = true),
  )

  /** Total GET requests: P * sum of the [[Grid]]'s radices (k * P^(1+1/k) for a perfect power). */
  def reads(algo: ExchangeAlgo, p: Int): Long =
    p.toLong * Grid(p, algo.levels).radices.sum

  /** Total PUT requests: k * P with write combining, else same as reads. */
  def writes(algo: ExchangeAlgo, p: Int): Long =
    if (algo.writeCombining) algo.levels.toLong * p else reads(algo, p)

  /** Total LIST requests: k * P with write combining (one per worker per
    * round to discover the offset-carrying names), none otherwise — both
    * O(P) as in Table 2.
    */
  def lists(algo: ExchangeAlgo, p: Int): Long =
    if (algo.writeCombining) algo.levels.toLong * p else 0L

  /** Number of times the exchange re-reads + re-writes the input. */
  def scans(algo: ExchangeAlgo): Int = algo.levels

  /** Dollar cost of the requests of one exchange (Fig 9's bars). */
  def readDollars(algo: ExchangeAlgo, p: Int): Double =
    reads(algo, p) * Pricing.S3GetPerRequest
  def writeDollars(algo: ExchangeAlgo, p: Int): Double =
    writes(algo, p) * Pricing.S3PutPerRequest + lists(algo, p) * Pricing.S3ListPerRequest
  def requestDollars(algo: ExchangeAlgo, p: Int): Double =
    readDollars(algo, p) + writeDollars(algo, p)

  /** Fig 9's horizontal reference range: the cost of running the P workers
    * themselves at 85 MiB/s and the 2 GiB worker's $3.3e-5/s — lower edge
    * one scan of 100 MiB per worker, upper edge three scans of 1 GiB per worker.
    */
  def workerDollarsLow(p: Int): Double =
    p * (100.0 / 85.0) * Pricing.lambdaPerSecond(2048)
  def workerDollarsHigh(p: Int): Double =
    p * 3 * (1024.0 / 85.0) * Pricing.lambdaPerSecond(2048)

  /** Requests per second per bucket during the busiest (largest-radix) round
    * of a k-level exchange spread over B buckets, assuming the round takes
    * `roundSeconds` — the quantity the S3 rate limit applies to (Section 4.4.2).
    */
  def requestRatePerBucket(p: Int, levels: Int, buckets: Int, roundSeconds: Double): Double = {
    require(buckets >= 1 && roundSeconds > 0)
    p.toDouble * Grid(p, levels).radices.max / buckets / roundSeconds
  }
}
