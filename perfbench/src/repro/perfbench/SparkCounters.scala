package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark counters of the traced run, from a listener the benchmark registers
  * itself (the untraced run registers none).
  *
  * The listener bus is asynchronous. Instead of sleeping until it drains,
  * [[drain]] runs a one-task marker job and waits for that job's end event:
  * the bus delivers events in the order they were posted, so once the
  * marker's end arrives every event of the work before it has arrived too.
  * Marker jobs, stages and tasks are left out of every counter.
  */
final class SparkCounters extends SparkListener {
  private val MarkerPrefix = "perfbench-drain-"
  /** The local property `SparkContext.setJobDescription` sets. */
  private val JobDescription = "spark.job.description"

  private val lock          = new Object
  private val totals        = mutable.LinkedHashMap.empty[String, Double]
  private val jobStartMs    = mutable.HashMap.empty[Int, Long]
  private val markerStages  = mutable.HashSet.empty[Int]
  private val markerJobs    = mutable.HashMap.empty[Int, Long]
  private val finishedJobs  = mutable.ArrayBuffer.empty[(Long, Long)]
  private var markersSeen   = 0L
  private var markersIssued = 0L

  private def add(name: String, v: Double): Unit =
    totals.updateWith(name)(old => Some(old.getOrElse(0.0) + v))

  override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
    val desc = Option(e.properties).flatMap(p => Option(p.getProperty(JobDescription)))
    desc.filter(_.startsWith(MarkerPrefix)) match {
      case Some(d) =>
        markerJobs(e.jobId) = d.stripPrefix(MarkerPrefix).toLong
        markerStages ++= e.stageIds
      case None => jobStartMs(e.jobId) = e.time
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = lock.synchronized {
    markerJobs.remove(e.jobId) match {
      case Some(n) =>
        markersSeen = math.max(markersSeen, n)
        lock.notifyAll()
      case None =>
        add("spark.jobs", 1)
        jobStartMs.remove(e.jobId).foreach(s => finishedJobs += ((s, e.time)))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = lock.synchronized {
    if (!markerStages.contains(e.stageInfo.stageId)) add("spark.stages", 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
    val info = e.taskInfo
    val m    = e.taskMetrics
    if (!markerStages.contains(e.stageId) && info != null && m != null) {
      add("spark.tasks", 1)
      add("spark.task_run_s", m.executorRunTime / 1e3)
      add("spark.task_cpu_s", m.executorCpuTime / 1e9)
      add("spark.task_gc_s", m.jvmGCTime / 1e3)
      // Spark UI's definition: the part of a task's life spent neither
      // deserializing, running, serializing its result nor fetching it.
      add("spark.scheduler_delay_s", math.max(0L, info.duration - m.executorRunTime -
        m.executorDeserializeTime - m.resultSerializationTime - info.gettingResultTime) / 1e3)
      add("spark.input_bytes", m.inputMetrics.bytesRead.toDouble)
      add("spark.input_records", m.inputMetrics.recordsRead.toDouble)
      add("spark.shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
      add("spark.shuffle_records", m.shuffleWriteMetrics.recordsWritten.toDouble)
      add("spark.shuffle_read_bytes", m.shuffleReadMetrics.totalBytesRead.toDouble)
      add("spark.shuffle_fetch_wait_s", m.shuffleReadMetrics.fetchWaitTime / 1e3)
    }
  }

  /** Block until every event posted before this call has been delivered. */
  def drain(sc: SparkContext): Unit = {
    val n = lock.synchronized { markersIssued += 1; markersIssued }
    val previous = sc.getLocalProperty(JobDescription)
    sc.setJobDescription(s"$MarkerPrefix$n")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setJobDescription(previous)
    val deadline = System.nanoTime() + 60L * 1000000000L
    lock.synchronized {
      while (markersSeen < n) {
        val left = (deadline - System.nanoTime()) / 1000000L
        if (left <= 0) throw new IllegalStateException("listener bus did not deliver the marker job's end")
        lock.wait(left)
      }
    }
  }

  /** Counter totals and finished job intervals since the last call; resets both. */
  def take(): (Map[String, Double], Vector[(Long, Long)]) = lock.synchronized {
    val out = (totals.toMap, finishedJobs.toVector)
    totals.clear()
    finishedJobs.clear()
    out
  }
}
