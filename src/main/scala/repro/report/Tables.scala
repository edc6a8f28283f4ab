package repro.report

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions.sum

import repro.core.{LambadaConfig, LambadaSim, Queries, QueryRun}
import repro.exchange.{ExchangeModel, ExchangeRun, ExchangeSim, ServerlessExchange}
import repro.invoke.Invoker
import repro.model.{LambdaModel, Pricing, S3Model, WorkerConfig}
import repro.qaas.{Athena, BigQuery}
import repro.scan.{ParquetFile, ParquetLayout, QueryProfile, ScanModel}
import repro.sched.{ExecutorModel, ScanEstimate, TaskMetrics, TaskRecord}

/** Builders for every reproduced table/figure: a `render*` function per
  * artifact, printed by the jobs with the paper's numbers alongside ours.
  * Fig 11 and Fig 12 also have a data function, asserted on by the tier-1
  * specs.
  */
object Tables {

  // =====================================================================
  // Table 1 — characteristics of function invocations
  // =====================================================================

  /** Single-invocation latency and intra-region rate are calibrated inputs
    * (network measurements); the 128-thread concurrent rate is emergent:
    * min(threads / latency, provider cap).
    */
  def renderTable1: String = {
    val rows = LambdaModel.Regions.map { r =>
      val (pMs, pRate, pIntra) = PaperNumbers.Table1(r.name)
      Seq(r.name, Report.f1(pMs), Report.f1(r.singleInvokeSeconds * 1000),
        Report.f1(pRate), Report.f1(r.concurrentRate(LambdaModel.DriverInvokerThreads)),
        Report.f1(pIntra), Report.f1(r.workerInvokeRate))
    }
    Report.table("Table 1: characteristics of function invocations",
      Seq("region", "single[ms] paper", "ours", "conc[inv/s] paper", "ours",
        "intra[inv/s] paper", "ours"), rows)
  }

  // =====================================================================
  // Fig 4 — intra-worker parallelism
  // =====================================================================

  def renderFig4: String = Report.table(
    "Fig 4: relative compute performance vs 1 vCPU (paper max: 1.67x at 3008 MiB / 2 threads)",
    Seq("memory[MiB]", "threads", "relative"),
    for { m <- Seq(128, 256, 512, 1024, 1792, 2048, 3008); t <- Seq(1, 2) }
      yield Seq(m.toString, t.toString, Report.f3(WorkerConfig(m).relativeThroughput(t))))

  // =====================================================================
  // Fig 5 — two-level invocation of 4096 workers
  // =====================================================================

  def renderFig5: String = {
    val tl         = Invoker.twoLevel(4096, LambdaModel.Eu, cold = true)
    val driverOnly = Invoker.oneLevel(4096, LambdaModel.Eu)
    Report.table("Fig 5: two-level invocation of 4096 workers (cold)",
      Seq("metric", "paper", "ours"),
      Seq(
        Seq("last invocation initiated [s]", "~2.5", Report.f2(tl.lastInitiatedAt)),
        Seq("all workers running [s]", "<4", Report.f2(tl.makespan)),
        Seq("driver-only issue time [s]", "13-18", Report.f2(driverOnly.lastInitiatedAt)),
      ))
  }

  // =====================================================================
  // Figs 6 & 7 — S3 scan characteristics
  // =====================================================================

  def renderFig6: String = Report.table(
    "Fig 6: ingress bandwidth per worker (paper: ~90 MiB/s large, bursts ~300 MiB/s small)",
    Seq("memory[MiB]", "conns", "large-file[MiB/s]", "small-file[MiB/s]"),
    for { m <- Seq(512, 1024, 2048, 3008); c <- Seq(1, 2, 4, 8) } yield Seq(m.toString, c.toString,
      Report.f1(math.min(S3Model.scanMiBps(16.0, c, m), S3Model.sustainedMiBps(m))),
      Report.f1(S3Model.smallObjectMiBps(16.0, c, m))))

  def renderFig7: String = Report.table(
    "Fig 7: chunk size vs bandwidth and request cost (1 GB object, 3008 MiB worker)",
    Seq("chunk[MiB]", "conns", "bandwidth[MiB/s]", "req-$ per 1000 scans", "req/worker cost"),
    ScanModel.chunkSizeSweep().map(r => Seq(Report.f2(r.chunkMiB), r.connections.toString,
      Report.f1(r.bandwidthMiBps), Report.f4(r.requestUsdPer1000),
      Report.f2(r.requestToWorkerCostRatio))))

  // =====================================================================
  // Table 2 — request complexity of exchange algorithms
  // =====================================================================

  /** Closed forms next to the request counts *measured* by actually running
    * each algorithm on MemS3 with 16 records per worker, at any P (the
    * paper's rows: 64 and 729).
    */
  def renderTable2(p: Int): String = {
    val rng      = new scala.util.Random(3L)
    val input    = Vector.fill(p)(Array.fill(16)(rng.nextLong()))
    val expected = ServerlessExchange.expectedPlacement(input, p)
    val rows = ExchangeModel.Algorithms.map { algo =>
      val res = ServerlessExchange.run(input, algo.levels, algo.writeCombining)
      // sanity: the algorithm must actually redistribute correctly
      require(res.data.map(_.sorted.toVector) == expected, s"${algo.label}: wrong placement at P=$p")
      Seq(algo.label,
        ExchangeModel.reads(algo, p).toString, res.requests.gets.toString,
        ExchangeModel.writes(algo, p).toString, res.requests.puts.toString,
        ExchangeModel.lists(algo, p).toString, res.requests.lists.toString,
        ExchangeModel.scans(algo).toString)
    }
    Report.table(
      s"Table 2: cost models of S3-based exchange algorithms at P=$p (formula | measured)",
      Seq("algo", "#reads", "measured", "#writes", "measured", "#lists", "measured", "#scans"),
      rows)
  }

  // =====================================================================
  // Fig 9 — dollar cost of exchange algorithms
  // =====================================================================

  def renderFig9: String = Report.table(
    "Fig 9: request cost of exchange algorithms (paper @4k 1l: ~$100 requests vs ~$3.3 workers)",
    Seq("P", "algo", "read-$", "write-$", "total-$", "worker-$ low", "worker-$ high"),
    for { p <- Seq(64, 256, 1024, 4096); algo <- ExchangeModel.Algorithms } yield {
      val read  = ExchangeModel.readDollars(algo, p)
      val write = ExchangeModel.writeDollars(algo, p)
      Seq(p.toString, algo.label, Report.usd(read), Report.usd(write), Report.usd(read + write),
        Report.usd(ExchangeModel.workerDollarsLow(p)), Report.usd(ExchangeModel.workerDollarsHigh(p)))
    })

  // =====================================================================
  // Table 3 — exchange runtimes vs Pocket and Locus
  // =====================================================================

  /** Section 5.5's larger datasets: 1 TB @ 1250 and 3 TB @ 2500 workers. */
  private final case class LargeExchangeRow(dataTb: Double, workers: Int, paperSeconds: Double,
                                            run: ExchangeRun)

  private def largeExchangeRows: Seq[LargeExchangeRow] = Seq(
    LargeExchangeRow(1.0, PaperNumbers.Exchange1TbWorkers, PaperNumbers.Exchange1TbSeconds,
      ExchangeSim.lambadaTwoLevel(PaperNumbers.Exchange1TbWorkers, 1 * Pricing.TB)),
    LargeExchangeRow(3.0, PaperNumbers.Exchange3TbWorkers, PaperNumbers.Exchange3TbSeconds,
      ExchangeSim.lambadaTwoLevel(PaperNumbers.Exchange3TbWorkers, 3 * Pricing.TB)),
  )

  def renderTable3: String = {
    val gb100 = 100 * Pricing.GB
    val pocketVm = Seq(250, 500, 1000).map(p => Seq("pocket", p.toString, "VMs",
      Report.f1(PaperNumbers.Table3PocketVm(p)), Report.f1(ExchangeSim.pocketVm(p, gb100))))
    val pocketS3 = Seq("pocket-baseline", "250", "S3",
      Report.f1(PaperNumbers.Table3PocketS3(250)), Report.f1(ExchangeSim.pocketS3Baseline(250, gb100)))
    val (locusLo, locusHi) = ExchangeSim.locus(gb100)
    val locus = Seq("locus", "dynamic", "S3+VM",
      s"${Report.f1(PaperNumbers.Table3LocusRange._1)}-${Report.f1(PaperNumbers.Table3LocusRange._2)}",
      Report.f1((locusLo + locusHi) / 2))
    val lambada = Seq(250, 500, 1000).map(p => Seq("lambada", p.toString, "S3",
      Report.f1(PaperNumbers.Table3Lambada(p)),
      Report.f1(ExchangeSim.lambadaTwoLevel(p, gb100).totalSeconds)))
    val main = Report.table("Table 3: running time of S3-based exchange operators (100 GB)",
      Seq("system", "#workers", "storage", "paper[s]", "ours[s]"),
      (pocketVm :+ pocketS3 :+ locus) ++ lambada)
    val large = Report.table("Section 5.5: larger exchanges",
      Seq("data", "#workers", "paper[s]", "ours[s]", "write tail (slowest/median)",
        "fastest/slowest worker"),
      largeExchangeRows.map { r =>
        Seq(s"${r.dataTb} TB", r.workers.toString, Report.f1(r.paperSeconds),
          Report.f1(r.run.totalSeconds), Report.f2(r.run.writeTailRatio),
          Report.pct(r.run.fastestWorkerSeconds / r.run.totalSeconds))
      })
    main + "\n\n" + large
  }

  def renderFig13: String = largeExchangeRows.map { r =>
    Report.table(s"Fig 13: phase breakdown, ${r.dataTb} TB on ${r.workers} workers " +
      s"(total ${Report.f1(r.run.totalSeconds)} s, lower bound ${Report.f1(r.run.lowerBoundSeconds)} s)",
      Seq("phase", "fastest[s]"),
      r.run.phaseFastest.toSeq.sortBy(_._1).map { case (k, v) => Seq(k, Report.f2(v)) })
  }.mkString("\n\n")

  // =====================================================================
  // Fig 10 — worker configurations (Q1, SF 1000)
  // =====================================================================

  /** Fig 10's sweep of Q1 over the SF 1000 layout `files`. */
  def renderFig10(files: Vector[ParquetFile]): String = Report.table(
    "Fig 10: TPC-H Q1, SF 1000 — worker memory M and files-per-worker F (paper: <10 s, cold ~+20 %)",
    Seq("M[MiB]", "F", "W", "hot[s]", "hot-$", "cold[s]", "cold-$"),
    LambadaSim.workerConfigSweep(files, Queries.Q1Profile).map { case (cold, hot) =>
      Seq(hot.config.memoryMiB.toString, hot.config.filesPerWorker.toString, hot.workers.toString,
        Report.f2(hot.latencySeconds), Report.usd(hot.dollars),
        Report.f2(cold.latencySeconds), Report.usd(cold.dollars))
    })

  // =====================================================================
  // Fig 11 — per-worker processing time distribution (push-downs)
  // =====================================================================

  final case class Fig11Data(query: String, run: QueryRun, prunedFraction: Double,
                             fastClassMedian: Double, slowClassMedian: Double)

  def fig11Data(profile: QueryProfile): Fig11Data = {
    val run = LambadaSim.run(ParquetLayout.lineitemSf1000(), profile, LambadaConfig(1792, 1))
    val threshold = 1.0 // seconds: separates the metadata-only class from scanners
    val (fast, slow) = run.workerSeconds.partition(_ < threshold)
    def med(v: Vector[Double]): Double =
      if (v.isEmpty) 0.0 else v.sorted.apply(v.size / 2)
    Fig11Data(profile.name, run, run.prunedWorkers.toDouble / run.workers, med(fast), med(slow))
  }

  def renderFig11(data: Seq[Fig11Data]): String = Report.table(
    "Fig 11: worker processing-time classes (paper: fast 0.1-0.2 s, slow 2-3 s; pruned ~2 % Q1, ~80 % Q6)",
    Seq("query", "workers", "pruned", "fast-class median[s]", "slow-class median[s]"),
    data.map(d => Seq(d.query, d.run.workers.toString, Report.pct(d.prunedFraction),
      Report.f2(d.fastClassMedian), Report.f2(d.slowClassMedian))))

  /** One query's filtered scan of a real cold store: the tasks of its scan stage. */
  final case class Fig11TaskRow(query: String, tasks: Vector[TaskRecord]) {
    def recordsRead: Long = tasks.map(_.recordsRead).sum
    /** The share of tasks that read no record, because row-group min/max
      * pushdown skipped their whole file: the executor-model twin of the
      * paper's metadata-only workers.
      */
    def zeroRecordShare: Double = tasks.count(_.recordsRead == 0).toDouble / tasks.size
  }

  /** Q1's and Q6's shipdate filters as real Spark scans of the cold store at
    * `dir`, one task per file as the paper has one worker per file. Runs in
    * a new session, so the caller's file-split settings stay as they are.
    */
  def fig11TaskRows(spark: SparkSession, dir: String): Seq[Fig11TaskRow] = {
    val session = spark.newSession()
    session.conf.set("spark.sql.files.maxPartitionBytes", 1024L * 1024)
    session.conf.set("spark.sql.files.openCostInBytes", 128L * 1024 * 1024)
    // The scan stage is the one with the most tasks (one per file split).
    def scanTasks(filter: Column): Vector[TaskRecord] = TaskMetrics.collect(session) {
      session.read.parquet(dir).filter(filter).agg(sum("l_extendedprice")).collect()
    }.groupBy(_.stageId).maxBy(_._2.size)._2
    Seq(Fig11TaskRow("Q1", scanTasks(Queries.Q1Shipdate)),
        Fig11TaskRow("Q6", scanTasks(Queries.Q6Shipdate)))
  }

  def renderFig11Tasks(rows: Seq[Fig11TaskRow]): String = Report.table(
    "Fig 11 (real Spark tasks over the cold store, one per file)",
    Seq("query", "scan tasks", "records read", "zero-record (pruned) task share"),
    rows.map(r => Seq(r.query, r.tasks.size.toString, r.recordsRead.toString,
      Report.pct(r.zeroRecordShare))))

  // =====================================================================
  // Fig 12 — Lambada vs Athena vs BigQuery
  // =====================================================================

  final case class Fig12Row(query: String, sf: Int, system: String, mode: String,
                            latencySeconds: Double, usd: Double)

  def fig12Rows: Seq[Fig12Row] = {
    // Pruning fractions and per-file work are identical at SF 10k; only the
    // worker count grows ten-fold.
    val sf1000  = ParquetLayout.lineitemSf1000()
    val scales  = Seq((1000, sf1000), (10000, ParquetLayout.lineitemSf10000(sf1000)))
    val queries = Seq((Queries.Q1Profile, BigQuery.Q1), (Queries.Q6Profile, BigQuery.Q6))

    scales.flatMap { case (sf, files) =>
      val totalBytes = files.map(_.bytes).sum.toDouble
      // The QaaS systems bill the used columns' share of the whole files,
      // footers included.
      val columnFractions = ParquetLayout.columnFractions(files)
      queries.flatMap { case (profile, bqCal) =>
        val usedBytes = totalBytes * profile.usedFraction(columnFractions)
        val prunableFileFraction =
          files.count(f => f.prune(profile.keyLo, profile.keyHi).isEmpty).toDouble / files.size

        val hot  = LambadaSim.run(files, profile, LambadaConfig(1792, 1))
        val cold = LambadaSim.run(files, profile, LambadaConfig(1792, 1, cold = true))
        val athenaLatency = Athena.latencySeconds(usedBytes, prunableFileFraction)
        val athenaUsd     = Athena.dollars(usedBytes, profile.rowSelectivity)
        val bqHot  = BigQuery.hotSeconds(bqCal, sf)
        val bqCold = BigQuery.coldSeconds(bqCal, sf, totalBytes)
        val bqUsd  = BigQuery.dollars(usedBytes)

        Seq(
          Fig12Row(profile.name, sf, "lambada", "hot", hot.latencySeconds, hot.dollars),
          Fig12Row(profile.name, sf, "lambada", "cold", cold.latencySeconds, cold.dollars),
          Fig12Row(profile.name, sf, "athena", "-", athenaLatency, athenaUsd),
          Fig12Row(profile.name, sf, "bigquery", "hot", bqHot, bqUsd),
          Fig12Row(profile.name, sf, "bigquery", "cold(load+query)", bqCold, bqUsd),
        )
      }
    }
  }

  def renderFig12(rows: Seq[Fig12Row]): String = Report.table(
    "Fig 12: Lambada (F=1, M=1792) vs QaaS — paper: Lambada ~4x faster than Athena (Q1 SF1k), " +
      "26x/15x at SF10k; ~1 order cheaper than Athena, ~2 than BigQuery",
    Seq("query", "SF", "system", "mode", "latency[s]", "cost"),
    rows.map(r => Seq(r.query, r.sf.toString, r.system, r.mode,
      Report.f1(r.latencySeconds), Report.usd(r.usd))))

  // =====================================================================
  // Fig 1 — intro simulation: IaaS vs FaaS vs QaaS on a 1 TB scan
  // =====================================================================

  def renderFig1a: String = {
    def row(strategy: String, e: ScanEstimate): Seq[String] =
      Seq(strategy, e.workers.toString, Report.f1(e.latencySeconds), Report.usd(e.dollars))
    Report.table(
      "Fig 1a: job-scoped resources scanning 1 TB (paper: IaaS up to ~10x cheaper, FaaS interactive)",
      Seq("strategy", "workers", "latency[s]", "cost"),
      ExecutorModel.fig1aIaasWorkers.map(n =>
        row("iaas-job-scoped", ExecutorModel.jobScopedIaas(Pricing.TB, n))) ++
        ExecutorModel.fig1aFaasWorkers.map(n => row("faas", ExecutorModel.faasScan(Pricing.TB, n))))
  }

  def renderFig1b: String = {
    val keys = Seq("iaas-dram", "iaas-nvme", "iaas-s3", "faas", "qaas")
    Report.table(
      "Fig 1b: always-on resources, hourly cost vs query frequency (1 TB scan in <=10 s)",
      "q/h" +: keys,
      Seq(0.1, 1, 3, 10, 30, 100).map { f =>
        val costs = ExecutorModel.fig1bHourlyUsd(Pricing.TB, 10.0, f)
        Report.f1(f) +: keys.map(k => Report.usd(costs(k)))
      })
  }

  /** The behavioural contract: artifact id -> its render, for every
    * artifact that needs no SparkSession. A render runs only when called, so
    * `AllTablesJob fig5` renders Fig 5 alone. `AllTablesJob` prints it and
    * `ContractSpec` pins it.
    */
  def all: Seq[(String, () => String)] = Seq(
    "fig1a" -> (() => renderFig1a), "fig1b" -> (() => renderFig1b), "fig4" -> (() => renderFig4),
    "table1" -> (() => renderTable1), "fig5" -> (() => renderFig5), "fig6" -> (() => renderFig6),
    "fig7" -> (() => renderFig7), "table2-p64" -> (() => renderTable2(64)),
    "table2-p729" -> (() => renderTable2(729)), "fig9" -> (() => renderFig9),
    "table3" -> (() => renderTable3), "fig13" -> (() => renderFig13),
    "fig10" -> (() => renderFig10(ParquetLayout.lineitemSf1000())),
    "fig11" -> (() =>
      renderFig11(Seq(fig11Data(Queries.Q1Profile), fig11Data(Queries.Q6Profile)))),
    "fig12" -> (() => renderFig12(fig12Rows)),
  )
}
