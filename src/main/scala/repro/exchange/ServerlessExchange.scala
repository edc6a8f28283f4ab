package repro.exchange

import java.util.Arrays
import java.util.concurrent.{ConcurrentHashMap, ExecutionException, ExecutorService, Executors}

/** Request totals of one exchange execution, as measured on [[MemS3]]. */
final case class RequestCounts(gets: Long, puts: Long, lists: Long)

/** Final per-worker data plus the measured request complexity. */
final case class ExchangeResult(data: Vector[Array[Long]], requests: RequestCounts)

/** Executable implementations of the paper's S3-based exchange operators
  * (Algorithms 1 and 2, generalized to k levels, with and without write
  * combining — Section 4.4), running against [[MemS3]].
  *
  * Workers form the k-dimensional [[Grid]] of P, whose radices s_1..s_k
  * multiply to P. In round i each worker exchanges data within the group of
  * s_i workers that agree with it on every coordinate except dimension i - 1,
  * routing each record to the worker whose coordinate there matches that of
  * the record's target partition. After k rounds every record sits on the
  * worker owning its partition. k = 1 (one radix, P) is BasicExchange.
  *
  * Write combining replaces the s_i per-partition objects of a round with one
  * object per sender whose partition offsets are encoded in the object
  * *name*; receivers LIST the group's prefix and issue ranged GETs
  * (Section 4.4.3, the cheaper offsets-in-name variant).
  */
object ServerlessExchange {

  /** Hash partitioning of a record key onto P partitions. */
  def partitionOf(key: Long, p: Int): Int = Math.floorMod(key, p.toLong).toInt

  /** Run a k-level exchange. `input(w)` is worker w's local records; the
    * result's `data(w)` holds every record whose partition is w.
    *
    * Each round's P workers run concurrently, on a per-call pool as wide as
    * the JVM's cores: first every worker's write phase, then every worker's
    * read phase. The end of the write phase is the round's barrier, so every
    * object a worker reads exists. Records keep their order within a sender
    * and senders are read in a fixed order, so the output does not depend on
    * scheduling.
    *
    * @param levels          number of exchange levels k (any P)
    * @param writeCombining  combine each sender's partitions into one object
    * @param numBuckets      buckets to spread objects over (rate-limit trick)
    */
  def run(
      input: Vector[Array[Long]],
      levels: Int,
      writeCombining: Boolean,
      numBuckets: Int = 10,
      s3: MemS3 = new MemS3,
  ): ExchangeResult = {
    val p = input.size
    require(p >= 1, "need at least one worker")
    require(numBuckets >= 1, "need at least one bucket")
    val grid = Grid(p, levels)
    val bucketName = Array.tabulate(numBuckets)(b => s"b$b")

    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try {
      var state = input
      for (round <- 1 to levels) {
        val d = round - 1
        val s = grid.radices(d)
        def groupOf(id: Int): Int = grid.withCoord(id, d, 0) // canonical representative
        val coordOf = Array.tabulate(p)(grid.coord(_, d))

        // ---- write phase -----------------------------------------------
        inParallel(pool, p) { w =>
          val (sorted, offsets) = sortByDest(state(w), s)(rec => coordOf(partitionOf(rec, p)))
          val gid = groupOf(w)
          if (writeCombining) {
            val name = s"r$round/g$gid/snd-$w-off-${offsets.mkString("_")}"
            s3.put(bucketName(gid % numBuckets), name, sorted)
          } else {
            for (v <- 0 until s) {
              val receiver = grid.withCoord(gid, d, v)
              s3.put(bucketName(receiver % numBuckets), s"r$round/snd-$w/rcv-$receiver",
                Arrays.copyOfRange(sorted, offsets(v), offsets(v + 1)))
            }
          }
        }

        // ---- read phase ------------------------------------------------
        // Offset vectors are encoded in object names; every receiver in a
        // group parses the same names, so parse and check each name once (a
        // pure local computation — request counts are unaffected).
        val offsetCache = new ConcurrentHashMap[String, Array[Int]]
        def offsetsIn(name: String): Array[Int] = {
          val sender = name.substring(name.indexOf("snd-") + 4, name.indexOf("-off-")).toInt
          require(sender >= 0 && sender < p, s"bad sender in $name")
          name.substring(name.indexOf("-off-") + 5).split('_').map(_.toInt)
        }
        state = inParallel(pool, p) { w =>
          val gid = groupOf(w)
          val myCoord = coordOf(w)
          if (writeCombining) {
            val bucket = bucketName(gid % numBuckets)
            val names  = s3.list(bucket, s"r$round/g$gid/snd-")
            concat(names.map { name =>
              val off = offsetCache.computeIfAbsent(name, offsetsIn)
              s3.getRange(bucket, name, off(myCoord), off(myCoord + 1))
                .getOrElse(Array.empty[Long])
            })
          } else {
            concat((0 until s).map { v =>
              val sender = grid.withCoord(gid, d, v)
              s3.get(bucketName(w % numBuckets), s"r$round/snd-$sender/rcv-$w")
                .getOrElse(throw new IllegalStateException(s"missing file from $sender to $w"))
            })
          }
        }
      }

      ExchangeResult(state,
        RequestCounts(s3.getCount.get(), s3.putCount.get(), s3.listCount.get()))
    } finally pool.shutdownNow()
  }

  /** `f(0) ... f(n - 1)` on `pool`, returned once all have finished. A
    * failure reaches the caller as the task's own exception.
    */
  private def inParallel[A](pool: ExecutorService, n: Int)(f: Int => A): Vector[A] =
    Vector.tabulate(n)(i => pool.submit[A](() => f(i))).map { task =>
      try task.get() catch { case e: ExecutionException => throw e.getCause }
    }

  /** Stable counting sort of `recs` by `dest(rec)` in [0, s): the sorted
    * records, and the s + 1 offsets at which each destination's run starts
    * (the last is `recs.length`). `dest` is called once per record.
    */
  private def sortByDest(recs: Array[Long], s: Int)(dest: Long => Int): (Array[Long], Array[Int]) = {
    val dests   = new Array[Int](recs.length)
    val offsets = new Array[Int](s + 1)
    var i = 0
    while (i < recs.length) { dests(i) = dest(recs(i)); offsets(dests(i) + 1) += 1; i += 1 }
    var d = 0
    while (d < s) { offsets(d + 1) += offsets(d); d += 1 }
    val next   = Arrays.copyOf(offsets, s)
    val sorted = new Array[Long](recs.length)
    i = 0
    while (i < recs.length) {
      val d = dests(i)
      sorted(next(d)) = recs(i)
      next(d) += 1
      i += 1
    }
    (sorted, offsets)
  }

  /** The arrays joined end to end, in order. */
  private def concat(parts: Seq[Array[Long]]): Array[Long] = {
    val out = new Array[Long](parts.iterator.map(_.length).sum)
    var at  = 0
    for (a <- parts) { System.arraycopy(a, 0, out, at, a.length); at += a.length }
    out
  }

  /** Ground truth: records grouped by their hash partition, each group sorted. */
  def expectedPlacement(input: Vector[Array[Long]], p: Int): Vector[Vector[Long]] = {
    val groups = Array.fill(p)(Array.newBuilder[Long])
    for (part <- input; rec <- part) groups(partitionOf(rec, p)) += rec
    groups.iterator.map { g =>
      val recs = g.result()
      Arrays.sort(recs)
      recs.toVector
    }.toVector
  }
}
