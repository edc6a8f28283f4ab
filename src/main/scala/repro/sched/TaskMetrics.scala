package repro.sched

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** One finished Spark task: its wall-clock duration and input volume. */
final case class TaskRecord(stageId: Int, taskId: Long, seconds: Double, bytesRead: Long,
                            recordsRead: Long)

/** Collects real per-task execution times from Spark's listener bus — the
  * executor-model analogue of the paper's per-worker processing-time
  * distribution (Fig 11): with one task per cold-store file and Parquet
  * min/max pushdown, pruned-file tasks land in a fast class and scanning
  * tasks in a slow class, exactly like Lambada's workers.
  */
object TaskMetrics {

  /** The local property `SparkContext.setJobDescription` sets. */
  private val JobDescription = "spark.job.description"
  private val markers        = new AtomicLong

  /** Records every successful task except those of the job described `marker`,
    * and opens `drained` when that job's end event arrives.
    */
  private final class Collector(marker: String) extends SparkListener {
    val records = new ConcurrentLinkedQueue[TaskRecord]()
    val drained = new CountDownLatch(1)
    private val markerStages = ConcurrentHashMap.newKeySet[Int]()
    @volatile private var markerJob = -1

    override def onJobStart(jobStart: SparkListenerJobStart): Unit =
      if (Option(jobStart.properties).exists(_.getProperty(JobDescription) == marker)) {
        jobStart.stageIds.foreach(markerStages.add)
        markerJob = jobStart.jobId
      }

    override def onJobEnd(jobEnd: SparkListenerJobEnd): Unit =
      if (jobEnd.jobId == markerJob) drained.countDown()

    override def onTaskEnd(taskEnd: SparkListenerTaskEnd): Unit = {
      val info = taskEnd.taskInfo
      if (info != null && taskEnd.taskMetrics != null && info.successful &&
          !markerStages.contains(taskEnd.stageId)) {
        records.add(TaskRecord(
          stageId = taskEnd.stageId,
          taskId = info.taskId,
          seconds = info.duration / 1000.0,
          bytesRead = taskEnd.taskMetrics.inputMetrics.bytesRead,
          recordsRead = taskEnd.taskMetrics.inputMetrics.recordsRead,
        ))
      }
    }
  }

  /** Run `action` and return the task records of everything it executed.
    *
    * The listener bus is asynchronous. Instead of waiting an arbitrary time
    * for it to drain, this runs a one-task marker job after `action` and
    * waits for that job's end event: the bus delivers events in the order
    * they were posted, so by then every task of `action` has been recorded.
    * The marker's own task is left out.
    */
  def collect(spark: SparkSession)(action: => Unit): Vector[TaskRecord] = {
    val sc        = spark.sparkContext
    val marker    = s"TaskMetrics.collect drain ${markers.incrementAndGet()}"
    val collector = new Collector(marker)
    sc.addSparkListener(collector)
    try {
      action
      val previous = sc.getLocalProperty(JobDescription)
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(0), 1).count() finally sc.setJobDescription(previous)
      if (!collector.drained.await(60, TimeUnit.SECONDS))
        throw new IllegalStateException("the listener bus did not deliver the marker job's end")
      collector.records.asScala.toVector.sortBy(_.taskId)
    } finally sc.removeSparkListener(collector)
  }
}
