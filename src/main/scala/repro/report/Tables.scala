package repro.report

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions.{col, lit, sum}

import repro.core.{LambadaConfig, LambadaSim, Queries, QueryRun}
import repro.exchange.{ExchangeAlgo, ExchangeModel, ExchangeRun, ExchangeSim, MemS3, ServerlessExchange}
import repro.invoke.Invoker
import repro.model.{LambdaModel, Pricing, S3Model, WorkerConfig}
import repro.qaas.{Athena, BigQuery}
import repro.scan.{ParquetFile, ParquetLayout, QueryProfile, ScanModel}
import repro.sched.{ExecutorModel, TaskMetrics, TaskRecord}

/** Builders for every reproduced table/figure. Each artifact has a data
  * function (asserted on by the tier-1 specs) and a `render*` function
  * (printed by the spark-submit jobs, with the paper's numbers alongside
  * ours).
  */
object Tables {

  // =====================================================================
  // Table 1 — characteristics of function invocations
  // =====================================================================

  final case class Table1Row(region: String, singleMs: Double, concurrentRate: Double,
                             intraRegionRate: Double)

  /** Single-invocation latency and intra-region rate are calibrated inputs
    * (network measurements); the 128-thread concurrent rate is emergent:
    * min(threads / latency, provider cap).
    */
  def table1Rows: Seq[Table1Row] =
    LambdaModel.Regions.map { r =>
      Table1Row(r.name, r.singleInvokeSeconds * 1000,
        r.concurrentRate(LambdaModel.DriverInvokerThreads), r.workerInvokeRate)
    }

  def renderTable1: String = {
    val rows = table1Rows.map { r =>
      val (pMs, pRate, pIntra) = PaperNumbers.Table1(r.region)
      Seq(r.region, Report.f1(pMs), Report.f1(r.singleMs),
        Report.f1(pRate), Report.f1(r.concurrentRate),
        Report.f1(pIntra), Report.f1(r.intraRegionRate))
    }
    Report.table("Table 1: characteristics of function invocations",
      Seq("region", "single[ms] paper", "ours", "conc[inv/s] paper", "ours",
        "intra[inv/s] paper", "ours"), rows)
  }

  // =====================================================================
  // Fig 4 — intra-worker parallelism
  // =====================================================================

  final case class Fig4Row(memoryMiB: Int, threads: Int, relative: Double)

  def fig4Rows(memories: Seq[Int] = Seq(128, 256, 512, 1024, 1792, 2048, 3008),
               threads: Seq[Int] = Seq(1, 2)): Seq[Fig4Row] =
    for { m <- memories; t <- threads }
      yield Fig4Row(m, t, WorkerConfig(m).relativeThroughput(t))

  def renderFig4: String = Report.table(
    "Fig 4: relative compute performance vs 1 vCPU (paper max: 1.67x at 3008 MiB / 2 threads)",
    Seq("memory[MiB]", "threads", "relative"),
    fig4Rows().map(r => Seq(r.memoryMiB.toString, r.threads.toString, Report.f3(r.relative))))

  // =====================================================================
  // Fig 5 — two-level invocation of 4096 workers
  // =====================================================================

  final case class Fig5Data(workers: Int, lastInitiated: Double, makespan: Double,
                            driverOnlyIssue: Double)

  def fig5Data(p: Int = 4096): Fig5Data = {
    val tl = Invoker.twoLevel(p, LambdaModel.Eu, cold = true)
    Fig5Data(p, tl.lastInitiatedAt, tl.makespan,
      Invoker.driverOnlyIssueSeconds(p, LambdaModel.Eu))
  }

  def renderFig5: String = {
    val d = fig5Data()
    Report.table("Fig 5: two-level invocation of 4096 workers (cold)",
      Seq("metric", "paper", "ours"),
      Seq(
        Seq("last invocation initiated [s]", "~2.5", Report.f2(d.lastInitiated)),
        Seq("all workers running [s]", "<4", Report.f2(d.makespan)),
        Seq("driver-only issue time [s]", "13-18", Report.f2(d.driverOnlyIssue)),
      ))
  }

  // =====================================================================
  // Figs 6 & 7 — S3 scan characteristics
  // =====================================================================

  final case class Fig6Row(memoryMiB: Int, connections: Int, largeMiBps: Double,
                           smallMiBps: Double)

  def fig6Rows(memories: Seq[Int] = Seq(512, 1024, 2048, 3008),
               connections: Seq[Int] = Seq(1, 2, 4, 8)): Seq[Fig6Row] =
    for { m <- memories; c <- connections } yield Fig6Row(m, c,
      math.min(S3Model.scanMiBps(16.0, c, m), S3Model.sustainedMiBps(m)),
      S3Model.smallObjectMiBps(16.0, c, m))

  def renderFig6: String = Report.table(
    "Fig 6: ingress bandwidth per worker (paper: ~90 MiB/s large, bursts ~300 MiB/s small)",
    Seq("memory[MiB]", "conns", "large-file[MiB/s]", "small-file[MiB/s]"),
    fig6Rows().map(r => Seq(r.memoryMiB.toString, r.connections.toString,
      Report.f1(r.largeMiBps), Report.f1(r.smallMiBps))))

  def renderFig7: String = Report.table(
    "Fig 7: chunk size vs bandwidth and request cost (1 GB object, 3008 MiB worker)",
    Seq("chunk[MiB]", "conns", "bandwidth[MiB/s]", "req-$ per 1000 scans", "req/worker cost"),
    ScanModel.chunkSizeSweep().map(r => Seq(Report.f2(r.chunkMiB), r.connections.toString,
      Report.f1(r.bandwidthMiBps), Report.f4(r.requestUsdPer1000),
      Report.f2(r.requestToWorkerCostRatio))))

  // =====================================================================
  // Table 2 — request complexity of exchange algorithms
  // =====================================================================

  final case class Table2Row(algo: ExchangeAlgo, p: Int,
                             formulaReads: Long, formulaWrites: Long, formulaLists: Long,
                             scans: Int,
                             measuredGets: Long, measuredPuts: Long, measuredLists: Long)

  /** Closed forms next to the request counts *measured* by actually running
    * each algorithm on MemS3, at any P (the paper's rows: 64 and 729).
    */
  def table2Rows(p: Int = 64, recordsPerWorker: Int = 16, seed: Long = 3L): Seq[Table2Row] = {
    val rng   = new scala.util.Random(seed)
    val input = Vector.fill(p)(Array.fill(recordsPerWorker)(rng.nextLong()))
    ExchangeModel.Algorithms.map { algo =>
      val s3  = new MemS3
      val res = ServerlessExchange.run(input, algo.levels, algo.writeCombining, s3 = s3)
      // sanity: the algorithm must actually redistribute correctly
      val expected = ServerlessExchange.expectedPlacement(input, p)
      require(res.data.map(_.sorted.toVector) == expected,
        s"${algo.label}: wrong placement at P=$p")
      Table2Row(algo, p,
        ExchangeModel.reads(algo, p), ExchangeModel.writes(algo, p),
        ExchangeModel.lists(algo, p), ExchangeModel.scans(algo),
        res.requests.gets, res.requests.puts, res.requests.lists)
    }
  }

  def renderTable2(p: Int = 64): String = Report.table(
    s"Table 2: cost models of S3-based exchange algorithms at P=$p (formula | measured)",
    Seq("algo", "#reads", "measured", "#writes", "measured", "#lists", "measured", "#scans"),
    table2Rows(p).map(r => Seq(r.algo.label,
      r.formulaReads.toString, r.measuredGets.toString,
      r.formulaWrites.toString, r.measuredPuts.toString,
      r.formulaLists.toString, r.measuredLists.toString,
      r.scans.toString)))

  // =====================================================================
  // Fig 9 — dollar cost of exchange algorithms
  // =====================================================================

  final case class Fig9Row(algo: ExchangeAlgo, p: Int, readUsd: Double, writeUsd: Double,
                           workerLowUsd: Double, workerHighUsd: Double)

  def fig9Rows(ps: Seq[Int] = Seq(64, 256, 1024, 4096)): Seq[Fig9Row] =
    for { p <- ps; algo <- ExchangeModel.Algorithms } yield Fig9Row(algo, p,
      ExchangeModel.readDollars(algo, p), ExchangeModel.writeDollars(algo, p),
      ExchangeModel.workerDollarsLow(p), ExchangeModel.workerDollarsHigh(p))

  def renderFig9: String = Report.table(
    "Fig 9: request cost of exchange algorithms (paper @4k 1l: ~$100 requests vs ~$3.3 workers)",
    Seq("P", "algo", "read-$", "write-$", "total-$", "worker-$ low", "worker-$ high"),
    fig9Rows().map(r => Seq(r.p.toString, r.algo.label, Report.usd(r.readUsd),
      Report.usd(r.writeUsd), Report.usd(r.readUsd + r.writeUsd),
      Report.usd(r.workerLowUsd), Report.usd(r.workerHighUsd))))

  // =====================================================================
  // Table 3 — exchange runtimes vs Pocket and Locus
  // =====================================================================

  final case class Table3Row(system: String, workers: String, storage: String,
                             paperSeconds: String, ourSeconds: Double)

  def table3Rows: Seq[Table3Row] = {
    val gb100 = 100 * Pricing.GB
    val pocketVm = Seq(250, 500, 1000).map(p => Table3Row("pocket", p.toString, "VMs",
      Report.f1(PaperNumbers.Table3PocketVm(p)), ExchangeSim.pocketVm(p, gb100)))
    val pocketS3 = Seq(Table3Row("pocket-baseline", "250", "S3",
      Report.f1(PaperNumbers.Table3PocketS3(250)), ExchangeSim.pocketS3Baseline(250, gb100)))
    val (locusLo, locusHi) = ExchangeSim.locus(gb100)
    val locus = Seq(Table3Row("locus", "dynamic", "S3+VM",
      s"${Report.f1(PaperNumbers.Table3LocusRange._1)}-${Report.f1(PaperNumbers.Table3LocusRange._2)}",
      (locusLo + locusHi) / 2))
    val lambada = Seq(250, 500, 1000).map(p => Table3Row("lambada", p.toString, "S3",
      Report.f1(PaperNumbers.Table3Lambada(p)),
      ExchangeSim.lambadaTwoLevel(p, gb100).totalSeconds))
    pocketVm ++ pocketS3 ++ locus ++ lambada
  }

  /** Section 5.5's larger datasets: 1 TB @ 1250 and 3 TB @ 2500 workers. */
  final case class LargeExchangeRow(dataTb: Double, workers: Int, paperSeconds: Double,
                                    run: ExchangeRun)

  def largeExchangeRows: Seq[LargeExchangeRow] = Seq(
    LargeExchangeRow(1.0, PaperNumbers.Exchange1TbWorkers, PaperNumbers.Exchange1TbSeconds,
      ExchangeSim.lambadaTwoLevel(PaperNumbers.Exchange1TbWorkers, 1 * Pricing.TB)),
    LargeExchangeRow(3.0, PaperNumbers.Exchange3TbWorkers, PaperNumbers.Exchange3TbSeconds,
      ExchangeSim.lambadaTwoLevel(PaperNumbers.Exchange3TbWorkers, 3 * Pricing.TB)),
  )

  def renderTable3: String = {
    val main = Report.table("Table 3: running time of S3-based exchange operators (100 GB)",
      Seq("system", "#workers", "storage", "paper[s]", "ours[s]"),
      table3Rows.map(r => Seq(r.system, r.workers, r.storage, r.paperSeconds,
        Report.f1(r.ourSeconds))))
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

  final case class Fig10Row(memoryMiB: Int, filesPerWorker: Int, workers: Int,
                            hot: QueryRun, cold: QueryRun)

  def fig10Rows(
      files: Vector[ParquetFile] = ParquetLayout.lineitemSf1000(),
      columnFractions: Map[String, Double] = ParquetLayout.LineitemColumnFractions,
  ): Seq[Fig10Row] =
    LambadaSim.workerConfigSweep(files, Queries.Q1Profile,
      columnFractions = columnFractions).map { case (cold, hot) =>
      Fig10Row(hot.config.memoryMiB, hot.config.filesPerWorker, hot.workers, hot, cold)
    }

  def renderFig10(rows: Seq[Fig10Row]): String = Report.table(
    "Fig 10: TPC-H Q1, SF 1000 — worker memory M and files-per-worker F (paper: <10 s, cold ~+20 %)",
    Seq("M[MiB]", "F", "W", "hot[s]", "hot-$", "cold[s]", "cold-$"),
    rows.map(r => Seq(r.memoryMiB.toString, r.filesPerWorker.toString, r.workers.toString,
      Report.f2(r.hot.latencySeconds), Report.usd(r.hot.dollars),
      Report.f2(r.cold.latencySeconds), Report.usd(r.cold.dollars))))

  // =====================================================================
  // Fig 11 — per-worker processing time distribution (push-downs)
  // =====================================================================

  final case class Fig11Data(query: String, run: QueryRun, prunedFraction: Double,
                             fastClassMedian: Double, slowClassMedian: Double)

  def fig11Data(
      profile: QueryProfile,
      files: Vector[ParquetFile] = ParquetLayout.lineitemSf1000(),
      columnFractions: Map[String, Double] = ParquetLayout.LineitemColumnFractions,
  ): Fig11Data = {
    val run = LambadaSim.run(files, profile, LambadaConfig(1792, 1), columnFractions)
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
    val shipdate = col("l_shipdate")
    def day(iso: String): Column = lit(iso).cast("date")
    Seq(
      Fig11TaskRow("Q1", scanTasks(shipdate <= day(Queries.Q1CutoffDate))),
      Fig11TaskRow("Q6",
        scanTasks(shipdate >= day(Queries.Q6DateLo) && shipdate < day(Queries.Q6DateHi))),
    )
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

  def fig12Rows(
      sf1000: Vector[ParquetFile] = ParquetLayout.lineitemSf1000(),
      columnFractions: Map[String, Double] = ParquetLayout.LineitemColumnFractions,
  ): Seq[Fig12Row] = {
    // Pruning fractions and per-file work are identical at SF 10k; only the
    // worker count grows ten-fold.
    val scales = Seq((1000, sf1000), (10000, ParquetLayout.lineitemSf10000(sf1000)))
    val queries = Seq((Queries.Q1Profile, BigQuery.Q1), (Queries.Q6Profile, BigQuery.Q6))

    scales.flatMap { case (sf, files) =>
      val totalBytes = files.map(_.bytes).sum.toDouble
      queries.flatMap { case (profile, bqCal) =>
        val usedBytes = totalBytes * profile.usedFraction(columnFractions)
        val prunableFileFraction =
          files.count(f => f.prune(profile.keyLo, profile.keyHi).isEmpty).toDouble / files.size

        val hot  = LambadaSim.run(files, profile, LambadaConfig(1792, 1), columnFractions)
        val cold = LambadaSim.run(files, profile, LambadaConfig(1792, 1, cold = true),
          columnFractions)
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

  final case class Fig1aRow(strategy: String, workers: Int, latencySeconds: Double, usd: Double)

  def fig1aRows(bytes: Double = Pricing.TB): Seq[Fig1aRow] =
    ExecutorModel.fig1aIaasWorkers.map { n =>
      val e = ExecutorModel.jobScopedIaas(bytes, n)
      Fig1aRow("iaas-job-scoped", n, e.latencySeconds, e.dollars)
    } ++ ExecutorModel.fig1aFaasWorkers.map { n =>
      val e = ExecutorModel.faasScan(bytes, n)
      Fig1aRow("faas", n, e.latencySeconds, e.dollars)
    }

  def renderFig1a: String = Report.table(
    "Fig 1a: job-scoped resources scanning 1 TB (paper: IaaS up to ~10x cheaper, FaaS interactive)",
    Seq("strategy", "workers", "latency[s]", "cost"),
    fig1aRows().map(r => Seq(r.strategy, r.workers.toString,
      Report.f1(r.latencySeconds), Report.usd(r.usd))))

  final case class Fig1bRow(queriesPerHour: Double, costs: Map[String, Double])

  def fig1bRows(bytes: Double = Pricing.TB, targetSeconds: Double = 10.0,
                frequencies: Seq[Double] = Seq(0.1, 1, 3, 10, 30, 100)): Seq[Fig1bRow] =
    frequencies.map(f => Fig1bRow(f, ExecutorModel.fig1bHourlyUsd(bytes, targetSeconds, f)))

  def renderFig1b: String = {
    val rows = fig1bRows()
    val keys = Seq("iaas-dram", "iaas-nvme", "iaas-s3", "faas", "qaas")
    Report.table(
      "Fig 1b: always-on resources, hourly cost vs query frequency (1 TB scan in <=10 s)",
      "q/h" +: keys,
      rows.map(r => Report.f1(r.queriesPerHour) +: keys.map(k => Report.usd(r.costs(k)))))
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
    "fig10" -> (() => renderFig10(fig10Rows())),
    "fig11" -> (() =>
      renderFig11(Seq(fig11Data(Queries.Q1Profile), fig11Data(Queries.Q6Profile)))),
    "fig12" -> (() => renderFig12(fig12Rows())),
  )
}
