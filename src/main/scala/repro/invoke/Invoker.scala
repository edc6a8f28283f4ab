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
  def size: Int = workers.size
}

/** Simulation of the worker-invocation component (Section 4.2, Table 1,
  * Fig 5): a driver with a fixed thread pool invokes workers against a
  * provider-side rate cap; optionally the first sqrt(P) workers invoke the
  * remaining ones from inside the region (the two-level "propagation tree").
  */
object Invoker {

  private def startDelay(cold: Boolean): Double =
    if (cold) LambdaModel.ColdStartSeconds else LambdaModel.WarmStartSeconds

  /** One-level scheme: the driver invokes all `p` workers itself using
    * `threads` concurrent invoker threads.
    */
  def oneLevel(
      p: Int,
      region: Region,
      threads: Int = LambdaModel.DriverInvokerThreads,
      cold: Boolean = true,
  ): InvocationTimeline = {
    require(p >= 1, "need at least one worker")
    val rate = region.concurrentRate(threads)
    val ws = Vector.tabulate(p) { i =>
      val initiated = (i + 1) / rate
      val running   = initiated + region.singleInvokeSeconds + startDelay(cold)
      WorkerStart(i, generation = 1, initiated, running, doneInvokingAt = running)
    }
    InvocationTimeline(ws)
  }

  /** Two-level scheme (Fig 5): the driver invokes ~sqrt(P) first-generation
    * workers, each of which invokes ~sqrt(P)-1 second-generation workers at
    * the intra-region rate before running its own query fragment.
    */
  def twoLevel(
      p: Int,
      region: Region,
      threads: Int = LambdaModel.DriverInvokerThreads,
      cold: Boolean = true,
  ): InvocationTimeline = {
    require(p >= 1, "need at least one worker")
    val gen1Count = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)
    val driverRate = region.concurrentRate(threads)
    // Distribute the remaining p - gen1Count IDs over the gen-1 workers.
    val remaining  = p - gen1Count
    val baseKids   = if (gen1Count == 0) 0 else remaining / gen1Count
    val extraKids  = if (gen1Count == 0) 0 else remaining % gen1Count

    val builder = Vector.newBuilder[WorkerStart]
    var nextId  = gen1Count
    for (i <- 0 until gen1Count) {
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

  /** Seconds the driver alone would need just to *issue* `p` invocations —
    * the paper's "13 s to 18 s" for 4096 workers that motivates the tree.
    */
  def driverOnlyIssueSeconds(p: Int, region: Region,
                             threads: Int = LambdaModel.DriverInvokerThreads): Double =
    p / region.concurrentRate(threads)

  /** The invocation scheme the simulations use for `p` workers: the driver
    * alone up to 64 workers, the two-level tree above.
    */
  def timeline(p: Int, region: Region, cold: Boolean): InvocationTimeline =
    if (p <= 64) oneLevel(p, region, cold = cold) else twoLevel(p, region, cold = cold)

  /** Invocation makespan used by the end-to-end query simulations. */
  def makespan(p: Int, region: Region = repro.model.LambdaModel.Eu, cold: Boolean = false): Double =
    timeline(p, region, cold).makespan
}
