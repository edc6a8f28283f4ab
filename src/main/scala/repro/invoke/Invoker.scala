package repro.invoke

import repro.model.{LambdaModel, Region}

/** Timeline of one worker's start-up: when its invocation request was issued
  * (`initiatedAt`), when the function instance was actually running
  * (`runningAt`), and — for first-generation workers of the tree scheme —
  * when it finished issuing its own child invocations (`doneInvokingAt`).
  * All times in seconds relative to query start.
  */
final case class WorkerStart(
    id: Int,
    generation: Int,
    initiatedAt: Double,
    runningAt: Double,
    doneInvokingAt: Double,
)

/** Result of simulating an invocation strategy for `P` workers. */
final case class InvocationTimeline(workers: Vector[WorkerStart]) {
  require(workers.nonEmpty, "timeline must contain at least one worker")
  /** When the last invocation request was issued. */
  def lastInitiatedAt: Double = workers.map(_.initiatedAt).max
  /** When every worker is running (the invocation makespan). */
  def makespan: Double = workers.map(_.runningAt).max
  /** When each worker is running, indexed by worker id. */
  def runningAt: Vector[Double] = workers.sortBy(_.id).map(_.runningAt)
  def size: Int = workers.size
}

/** Simulation of the worker-invocation component (Section 4.2, Table 1,
  * Fig 5): a driver with `LambdaModel.DriverInvokerThreads` invoker threads
  * invokes a first generation of workers against a provider-side rate cap,
  * and each of those invokes its share of the rest from inside the region.
  * Driver-only invocation is the tree whose first generation is every worker.
  */
object Invoker {

  private def startDelay(cold: Boolean): Double =
    if (cold) LambdaModel.ColdStartSeconds else LambdaModel.WarmStartSeconds

  /** The invocation tree: the driver invokes workers `0 until firstGeneration`,
    * and each of them invokes its share of the remaining `p - firstGeneration`
    * (ids from `firstGeneration` up) at the intra-region rate before running
    * its own query fragment.
    */
  private def tree(p: Int, firstGeneration: Int, region: Region, cold: Boolean)
      : InvocationTimeline = {
    require(p >= 1, "need at least one worker")
    val driverRate = region.concurrentRate(LambdaModel.DriverInvokerThreads)
    val remaining  = p - firstGeneration
    val baseKids   = remaining / firstGeneration
    val extraKids  = remaining % firstGeneration

    val builder = Vector.newBuilder[WorkerStart]
    var nextId  = firstGeneration
    for (i <- 0 until firstGeneration) {
      val initiated = (i + 1) / driverRate
      val running   = initiated + region.singleInvokeSeconds + startDelay(cold)
      val kids      = baseKids + (if (i < extraKids) 1 else 0)
      val doneInv   = running + kids / region.workerInvokeRate
      builder += WorkerStart(i, generation = 1, initiated, running, doneInv)
      for (j <- 0 until kids) {
        val childInitiated = running + (j + 1) / region.workerInvokeRate
        val childRunning =
          childInitiated + LambdaModel.IntraRegionInvokeSeconds + startDelay(cold)
        builder += WorkerStart(nextId, generation = 2, childInitiated, childRunning, childRunning)
        nextId += 1
      }
    }
    InvocationTimeline(builder.result())
  }

  /** One-level scheme: the driver invokes all `p` workers itself. Its
    * `lastInitiatedAt` is the time the driver alone needs just to *issue* `p`
    * invocations — the paper's "13 s to 18 s" for 4096 workers that
    * motivates the tree.
    */
  def oneLevel(p: Int, region: Region, cold: Boolean = true): InvocationTimeline =
    tree(p, p, region, cold)

  /** Two-level scheme (Fig 5): the driver invokes ~sqrt(P) first-generation
    * workers, each of which invokes ~sqrt(P)-1 second-generation workers.
    */
  def twoLevel(p: Int, region: Region, cold: Boolean = true): InvocationTimeline =
    tree(p, math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt), region, cold)

  /** The invocation scheme the simulations use for `p` workers: the driver
    * alone up to 64 workers, the two-level tree above.
    */
  def timeline(p: Int, region: Region, cold: Boolean): InvocationTimeline =
    if (p <= 64) oneLevel(p, region, cold) else twoLevel(p, region, cold)
}
