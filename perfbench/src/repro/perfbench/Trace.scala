package repro.perfbench

import scala.collection.mutable

/** One timed interval: nanoseconds since the tracer started. `op` is the
  * operation it belongs to (-1 for set-up and run-level work) and `parent`
  * the span that caused it (-1 for a root).
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span and counter recorder for the traced run.
  *
  * Spans are taken around calls into each module's public functions from
  * the benchmark's own code; Spark jobs, reported by [[SparkCounters]], are
  * attached afterwards as children of the innermost span that contains
  * their start. Nothing is written until the run ends. With `enabled =
  * false` every call is a pass-through, so the untraced run pays only a
  * branch per call.
  */
final class Tracer(val enabled: Boolean) {
  private val t0Ns       = System.nanoTime()
  private val t0EpochNs  = System.currentTimeMillis() * 1000000L
  private val spans      = mutable.ArrayBuffer.empty[Span]
  private var stack      = List.empty[Int]
  private var nextId     = 0
  private var currentOp  = -1
  private val counters   = mutable.LinkedHashMap.empty[(Int, String), Double]

  def now(): Long = System.nanoTime() - t0Ns

  /** Spans and counts recorded until `endOp` belong to operation `op`. */
  def beginOp(op: Int): Unit = currentOp = op
  def endOp(): Unit = currentOp = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val start = now()
      try body
      finally {
        stack = stack.tail
        spans += Span(id, parent, currentOp, name, start, now())
      }
    }

  /** Add `v` to a counter of the current operation (or of the run). */
  def count(name: String, v: Double): Unit =
    if (enabled) counters.updateWith((currentOp, name))(old => Some(old.getOrElse(0.0) + v))

  /** Attach an interval reported in epoch milliseconds (Spark's listener
    * clock) under the innermost recorded span that contains its start.
    */
  def external(name: String, startEpochMs: Long, endEpochMs: Long): Unit =
    if (enabled) {
      val s = startEpochMs * 1000000L - t0EpochNs
      val e = math.max(s, endEpochMs * 1000000L - t0EpochNs)
      // Spark's clock has millisecond resolution: allow a job to start up to
      // 1 ms before the span that submitted it.
      val host = spans.filter(p => p.startNs <= s + 1000000L && s <= p.endNs).maxByOption(_.startNs)
      val id = nextId
      nextId += 1
      spans += Span(id, host.fold(-1)(_.id), host.fold(-1)(_.op), name, s, e)
    }

  def allSpans: Vector[Span] = spans.toVector.sortBy(_.id)

  /** Per-operation values of a counter, in operation order. */
  def opCounts(name: String): Vector[Double] =
    counters.iterator.collect { case ((op, n), v) if n == name && op >= 0 => op -> v }
      .toVector.sortBy(_._1).map(_._2)

  /** A run-level counter (recorded outside any operation). */
  def runCount(name: String): Option[Double] = counters.get((-1, name))

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover.
    */
  def selfNs: Map[Int, Long] = {
    val all      = allSpans
    val children = all.groupBy(_.parent)
    all.map { sp =>
      val covered = children.getOrElse(sp.id, Vector.empty)
        .map(c => (math.max(c.startNs, sp.startNs), math.min(c.endNs, sp.endNs)))
        .filter { case (s, e) => e > s }
        .sortBy(_._1)
        .foldLeft((0L, Long.MinValue)) { case ((sum, reach), (s, e)) =>
          val from = math.max(s, reach)
          if (e > from) (sum + (e - from), e) else (sum, reach)
        }._1
      sp.id -> (sp.durNs - covered)
    }.toMap
  }

  /** Spans as JSON lines-in-an-array, for the trace file written at run end. */
  def spansJson: String =
    allSpans.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":${Json.str(s.name)},""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}
