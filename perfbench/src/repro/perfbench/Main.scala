package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.hadoop.conf.Configuration

import repro.model.Pricing

/** Minimal JSON writing for the result line and files. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    } + "\""

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"not a JSON number: $v")
    v.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Median and tail of a sample. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The tail value, its percentile and the number of samples beyond it.
    * Above 100 samples this is the highest percentile with ten samples
    * beyond it; below, fewer than ten can lie beyond any percentile above
    * the median, so it is p90 by nearest rank (the maximum below 10
    * samples).
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s   = xs.sorted
    val n   = s.size
    val idx = math.max(n - 11, math.ceil(0.9 * n).toInt - 1).max(0).min(n - 1)
    (s(idx), 100.0 * (idx + 1) / n, n - 1 - idx)
  }
}

/** The benchmark's entry point: one workload, one seed, one run.
  *
  * A run sets the workload up once, verifies the program once against its
  * oracle, runs the workload's warm-up operations and then runs a closed
  * loop (one client: the next operation starts when the previous one has
  * finished and been checked) until `--seconds` have passed and at least
  * `MinOps` operations ran. The last line of standard output is the result
  * JSON; a longer result file (environment, samples, set-up times) and,
  * when traced, the spans go to `--out`.
  */
object Main {
  val MinOps = 3

  val EndToEnd: Seq[(String, String)] = Seq(
    "latency_p50_s" -> "s", "latency_tail_s" -> "s", "rows_per_s" -> "1/s",
    "success_rate" -> "ratio", "setup_s" -> "s", "heap_live_mib" -> "MiB",
    "store_bytes" -> "B", "usd_per_op" -> "USD")

  /** Span names (per operation, summed) reported as `<name>_s`. */
  private val OpSpans = Seq("coldstore.prunedScan", "queries.execute") ++
    Seq("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc").map(v => s"exchange.$v") ++
    Seq("spark_exchange.two_level", "spark_exchange.direct", "exchange.check")
  /** Span names outside the operations (set-up and verification). */
  private val RunSpans = Seq("coldstore.write", "spark.session_start", "exchange.input_gen",
    "synthdata.cache", "oracle.check")
  private val SparkCounts = Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.task_run_s",
    "spark.task_cpu_s", "spark.task_gc_s", "spark.scheduler_delay_s", "spark.input_bytes",
    "spark.input_records", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes",
    "spark.shuffle_records", "spark.shuffle_fetch_wait_s")
  /** The layer each span's self time is charged to. */
  private def layerOf(name: String): String = name match {
    case "op"                                => "bench"
    case n if n.startsWith("coldstore.")     => "coldstore"
    case n if n.startsWith("queries.")       => "queries"
    case "spark.job"                         => "spark_jobs"
    case n if n.startsWith("exchange.")      => "serverless_exchange"
    case n if n.startsWith("spark_exchange.") => "spark_exchange"
    case other                               => other
  }
  private val Layers = Seq("bench", "coldstore", "queries", "spark_jobs", "serverless_exchange",
    "spark_exchange")

  val PerLayer: Seq[(String, String)] =
    Seq("coldstore.prunedScan_s" -> "s", "coldstore.footers_read" -> "count",
      "coldstore.files_scanned" -> "count", "coldstore.pruned_fraction" -> "ratio",
      "queries.execute_s" -> "s") ++
    SparkCounts.map(n => n -> unitOf(n)) ++
    Seq("spark.kept_fraction" -> "ratio") ++
    RunSpans.filter(_ != "oracle.check").map(n => s"${n}_s" -> "s") ++
    OpSpans.filter(n => n.startsWith("exchange.") && n != "exchange.check").map(n => s"${n}_s" -> "s") ++
    Seq("memS3.gets" -> "count", "memS3.puts" -> "count", "memS3.lists" -> "count",
      "memS3.objects" -> "count", "memS3.requests_per_record" -> "ratio",
      "spark_exchange.two_level_s" -> "s", "spark_exchange.direct_s" -> "s",
      "spark_exchange.round_files" -> "count", "oracle.check_s" -> "s", "exchange.check_s" -> "s") ++
    Layers.map(l => s"self.${l}_s" -> "s") ++
    Seq("jvm.gc_s" -> "s", "traced.latency_p50_s" -> "s")

  private def unitOf(name: String): String =
    if (name.endsWith("_s")) "s" else if (name.endsWith("_bytes")) "B" else "count"

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        cores: Int, out: String, work: String)

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match { case "0" => false; case "1" => true
                            case t => throw new IllegalArgumentException(s"--trace $t") },
      need("cores").toInt, need("out"), need("work"))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    Configuration.addDefaultResource("perfbench-site.xml")
    require(new Configuration().get("fs.file.impl") == classOf[CountingLocalFileSystem].getName,
      "perfbench-site.xml is not on the class path")
    val ok = try run(a) catch {
      case NonFatal(e) =>
        Console.err.println(s"perfbench: ${a.workload} failed: $e")
        e.printStackTrace()
        false
    }
    // Spark leaves non-daemon threads behind; exit explicitly.
    sys.exit(if (ok) 0 else 1)
  }

  private def run(a: Args): Boolean = {
    val tr       = new Tracer(a.trace)
    val counters = if (a.trace) Some(new SparkCounters) else None
    val ctx      = new Ctx(a.seed, a.cores, a.work, tr, counters)
    val w        = Workload(a.workload, ctx)
    val sec      = (t0: Long) => (System.nanoTime() - t0) / 1e9
    try {
      // ---- set-up, then verification and the warm-up ops.
      val t0 = System.nanoTime()
      w.setUp()
      val setUpS = sec(t0)
      w.verify()
      ctx.takeSparkCounters()
      val (warmS, storeBytes) = warmUp(w)
      ctx.takeSparkCounters()
      val setupS = setUpS + warmS

      // ---- the closed loop.
      val lat       = mutable.ArrayBuffer.empty[Double]
      val usd       = mutable.ArrayBuffer.empty[Double]
      var failed    = 0
      var heapBytes = liveHeapBytes()
      val loop0     = System.nanoTime()
      while (sec(loop0) < a.seconds || lat.size < MinOps) {
        val (dt, good, cost) = oneOp(a, ctx, w, lat.size + 1)
        if (!good) failed += 1
        lat += dt
        usd += cost
        heapBytes = math.max(heapBytes, liveHeapBytes())
      }
      if (a.trace) w.traceRun()

      val (tailS, tailPct, beyond) = Stats.tail(lat.toSeq)
      val e2e: Map[String, Double] = Map(
        "latency_p50_s" -> Stats.median(lat.toSeq),
        "latency_tail_s" -> tailS,
        "rows_per_s" -> w.rowsPerOp * lat.size / lat.sum,
        "success_rate" -> (lat.size - failed).toDouble / lat.size,
        "setup_s" -> setupS,
        "heap_live_mib" -> heapBytes / Pricing.MiB,
        "store_bytes" -> storeBytes.toDouble,
        "usd_per_op" -> Stats.median(usd.toSeq))
      val metrics: Seq[(String, String, Double)] =
        if (a.trace) perLayer(tr, lat.toSeq)
        else EndToEnd.map { case (n, u) => (n, u, e2e(n)) }

      val env = environment(a, ctx, w)
      val tailNote = f"latency_tail_s is p$tailPct%.1f of ${lat.size} operations ($beyond beyond it)"
      println(s"perfbench ${a.workload} seed=${a.seed} trace=${if (a.trace) 1 else 0}: $tailNote")
      println("environment: " + env.map { case (k, v) => s"$k=$v" }.mkString(" "))
      metrics.foreach { case (n, u, v) => println(f"  $n%-32s $v%16.6f $u") }

      val metricsJson = Json.obj(metrics.map { case (n, u, v) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })
      val stem = s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
      Files.createDirectories(Paths.get(a.out))
      val resultFile = Json.obj(Seq(
        "workload" -> Json.str(a.workload),
        "environment" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
        "metrics" -> metricsJson,
        "end_to_end" -> Json.obj(EndToEnd.map { case (n, _) => n -> Json.num(e2e(n)) }),
        "latency_tail" -> Json.str(tailNote),
        "latencies_s" -> lat.map(Json.num).mkString("[", ", ", "]"),
        "gc_s" -> gcPerOp.map(Json.num).mkString("[", ", ", "]"),
        "set_up_s" -> Json.num(setUpS),
        "warmup_s" -> Json.num(warmS),
        "attempted" -> lat.size.toString, "failed" -> failed.toString))
      Files.writeString(Paths.get(a.out, s"$stem.json"), resultFile + "\n")
      if (a.trace) Files.writeString(Paths.get(a.out, s"$stem-spans.json"), tr.spansJson)

      val correct = failed == 0
      println(Json.obj(Seq(
        "correct" -> correct.toString,
        "attempted" -> lat.size.toString,
        "failed" -> failed.toString,
        "metrics" -> metricsJson)))
      correct
    } finally {
      w.tearDown()
      ctx.stopSpark()
    }
  }

  /** The warm-up operations: their summed time, and the store size measured
    * on the first one's output. The outputs are unreachable once this returns.
    */
  private def warmUp(w: Workload): (Double, Long) = {
    val runs = (1 to w.warmupOps).map { i =>
      val t0  = System.nanoTime()
      val out = w.operation()
      val s   = (System.nanoTime() - t0) / 1e9
      require(w.check(out), "warm-up operation returned a wrong result")
      (s, if (i == 1) w.storeBytes(out) else 0L)
    }
    (runs.map(_._1).sum, runs.head._2)
  }

  /** One operation of the loop: its time, whether its output was right,
    * and its dollar cost. The output is unreachable once this returns, so
    * the collection after it measures the live heap between operations.
    */
  private def oneOp(a: Args, ctx: Ctx, w: Workload, op: Int): (Double, Boolean, Double) = {
    val tr = ctx.tr
    tr.beginOp(op)
    val gc0 = gcSeconds()
    val t1  = System.nanoTime()
    val out = try Some(tr.span("op") { w.operation() }) catch {
      case NonFatal(e) => Console.err.println(s"operation $op failed: $e"); None
    }
    val dt = (System.nanoTime() - t1) / 1e9
    gcPerOp += gcSeconds() - gc0
    tr.count("jvm.gc_s", gcPerOp.last)
    if (a.trace) {
      val (sparkCounts, jobs) = ctx.takeSparkCounters()
      jobs.foreach { case (s, e) => tr.external("spark.job", s, e) }
      SparkCounts.foreach(n => tr.count(n, sparkCounts.getOrElse(n, 0.0)))
      out.foreach(w.traceOp(_, sparkCounts))
    }
    val good = out.exists(w.check)
    val cost = out.fold(0.0)(w.usdPerOp(_, dt))
    tr.endOp()
    (dt, good, cost)
  }

  /** JVM garbage-collection time of each operation, in loop order. */
  private val gcPerOp = mutable.ArrayBuffer.empty[Double]

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.toArray
      .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime).sum / 1e3

  /** Heap in use right after a full collection. */
  private def liveHeapBytes(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Per-layer metrics of a traced run: medians over operations (set-up
    * spans occur once per run), 0 for a layer the workload bypasses.
    */
  private def perLayer(tr: Tracer, lat: Seq[Double]): Seq[(String, String, Double)] = {
    val spans = tr.allSpans
    val ops   = lat.indices.map(_ + 1)
    val self  = tr.selfNs
    def perOp(f: Span => Double, keep: Span => Boolean): Double =
      Stats.median(ops.map(op => spans.filter(s => s.op == op && keep(s)).map(f).sum))
    val values = mutable.LinkedHashMap.empty[String, Double]
    OpSpans.foreach(n => values(s"${n}_s") = perOp(_.durNs / 1e9, _.name == n))
    RunSpans.foreach { n =>
      val d = spans.filter(s => s.name == n && s.op < 0).map(_.durNs / 1e9)
      values(s"${n}_s") = if (d.isEmpty) 0.0 else Stats.median(d)
    }
    // Self time inside the operation span's subtree only (checks run outside it).
    val inOp = mutable.HashSet.empty[Int]
    spans.foreach(s => if (s.name == "op" || inOp.contains(s.parent)) inOp += s.id)
    Layers.foreach { l =>
      values(s"self.${l}_s") =
        perOp(s => self(s.id) / 1e9, s => inOp.contains(s.id) && layerOf(s.name) == l)
    }
    values("traced.latency_p50_s") = Stats.median(lat)
    PerLayer.map { case (n, u) =>
      val v = values.getOrElse(n, {
        val perOpCounts = tr.opCounts(n)
        if (perOpCounts.nonEmpty) Stats.median(perOpCounts) else tr.runCount(n).getOrElse(0.0)
      })
      (n, u, v)
    }
  }

  private def environment(a: Args, ctx: Ctx, w: Workload): Seq[(String, String)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    val xmx = rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-Xmx")).mkString(" ")
    Seq(
      "workload" -> a.workload, "seed" -> a.seed.toString, "seconds" -> a.seconds.toString,
      "trace" -> (if (a.trace) "1" else "0"), "nproc" -> a.cores.toString,
      "spark_master" -> s"local[${a.cores}]",
      "spark_sql_shuffle_partitions" -> ctx.ShufflePartitions.toString,
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "jvm_xmx" -> xmx, "jvm_max_heap_mib" -> f"${Runtime.getRuntime.maxMemory / Pricing.MiB}%.0f",
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "scala" -> scala.util.Properties.versionNumberString,
      "min_ops" -> MinOps.toString,
      "closed_loop_clients" -> "1",
    ) ++ w.params.toSeq.sortBy(_._1)
  }
}
