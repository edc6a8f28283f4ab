package repro.perfbench

import java.sql.DriverManager

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.FilterExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper

import repro.SynthData
import repro.coldstore.ColdStore
import repro.core.Queries
import repro.exchange.{ExchangeAlgo, ExchangeModel, ExchangeResult, MemS3, ServerlessExchange,
  SparkExchange}
import repro.model.Pricing

/** What a run shares with its workload: the seed, the cores, a scratch
  * directory inside the checkout, the tracer and (traced run only) the
  * Spark listener.
  */
final class Ctx(val seed: Long, val cores: Int, val workDir: String, val tr: Tracer,
                val counters: Option[SparkCounters]) {
  val ShufflePartitions = 64
  private var session: Option[SparkSession] = None

  /** Start a fresh local[cores] session (stopping any previous one). */
  def startSpark(): SparkSession = {
    stopSpark()
    val s = tr.span("spark.session_start") {
      SparkSession.builder()
        .master(s"local[$cores]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"$workDir/spark-local")
        .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
        .getOrCreate()
    }
    counters.foreach(s.sparkContext.addSparkListener)
    session = Some(s)
    s
  }

  def stopSpark(): Unit = {
    session.foreach(_.stop())
    session = None
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  /** Counters and job intervals of the Spark work since the last call. */
  def takeSparkCounters(): (Map[String, Double], Vector[(Long, Long)]) =
    (for (c <- counters; s <- session) yield { c.drain(s.sparkContext); c.take() })
      .getOrElse((Map.empty, Vector.empty))
}

/** One benchmark workload. `operation` is the timed unit of a closed loop;
  * everything else runs outside the timed interval.
  */
trait Workload {
  type Out

  /** Parameters that define the inputs, recorded in the result file. */
  def params: Map[String, String]

  /** One full set-up: start what the workload needs and generate its inputs. */
  def setUp(): Unit

  /** Untimed operations after set-up, until the JIT has compiled the
    * operation's hot paths and later operations take a steady time.
    */
  def warmupOps: Int = 1

  /** Once per run, after set-up: check the program against an oracle. */
  def verify(): Unit

  def operation(): Out

  /** Is `out` the correct answer? */
  def check(out: Out): Boolean

  /** Input rows or exchange records one operation processes. */
  def rowsPerOp: Long

  /** Bytes of the workload's store, measured on one checked output. */
  def storeBytes(out: Out): Long

  /** Dollars of one operation that took `seconds`: S3 request dollars from
    * its measured request counts where it makes storage requests.
    */
  def usdPerOp(out: Out, seconds: Double): Double

  /** Traced run: per-operation counts of the program's layers. */
  def traceOp(out: Out, spark: Map[String, Double]): Unit

  /** Traced run: counts taken once, after the timed loop. */
  def traceRun(): Unit = ()

  def tearDown(): Unit
}

object Workload {
  def apply(name: String, ctx: Ctx): Workload = name match {
    case "scan-q6"        => new ScanWorkload(ctx, q1 = false)
    case "scan-q1"        => new ScanWorkload(ctx, q1 = true)
    case "exchange-s3"    => new S3ExchangeWorkload(ctx)
    case "exchange-spark" => new SparkExchangeWorkload(ctx)
    case other            => throw new IllegalArgumentException(s"unknown workload $other")
  }
}

/** Rows that survive the query's FilterExec nodes, from the executed plan's
  * SQL metrics (looking through adaptive query execution).
  */
private object PlanMetrics extends AdaptiveSparkPlanHelper {
  def filterOutputRows(df: DataFrame): Long =
    collect(df.queryExecution.executedPlan) { case f: FilterExec => f.metrics("numOutputRows").value }.sum
}

/** The DuckDB oracle over a cold store's Parquet files, run as
  * `repro.Oracle.assertEquivalent` runs it: the same DuckDB query text over
  * a `lineitem` table of VARCHAR columns, and the same canonical comparison
  * (columns by name, numbers to six decimals, rows sorted). The difference
  * is that DuckDB loads the files itself: Oracle's row-at-a-time JDBC
  * insert takes about two minutes for LINEITEM at SF 0.1, longer than one
  * benchmark run may last.
  */
object ParquetOracle {
  private def canon(rows: Seq[Seq[Any]], cols: Seq[String]): Seq[Seq[String]] = {
    val idx = cols.map(_.toLowerCase).zipWithIndex.sortBy(_._1).map(_._2)
    rows.map(r => idx.map { i =>
      r(i) match {
        case null                     => "∅"
        case d: Double                => f"$d%.6f"
        case f: Float                 => f"${f.toDouble}%.6f"
        case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
        case x                        => x.toString
      }
    }).sortBy(_.mkString(""))
  }

  def check(answer: Seq[Row], answerCols: Seq[String], sql: String, dir: String,
            columns: Seq[String]): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement
      st.execute(s"CREATE TABLE lineitem AS SELECT " +
        columns.map(c => s"CAST($c AS VARCHAR) AS $c").mkString(", ") +
        s" FROM read_parquet('$dir/*.parquet')")
      val rs    = st.executeQuery(sql)
      val dCols = (1 to rs.getMetaData.getColumnCount).map(rs.getMetaData.getColumnLabel)
      val dRows = Iterator.continually(rs).takeWhile(_.next())
        .map(r => dCols.indices.map(i => r.getObject(i + 1))).toVector
      require(dCols.map(_.toLowerCase).sorted == answerCols.map(_.toLowerCase).sorted,
        s"column mismatch: spark=$answerCols duckdb=$dCols")
      val got = canon(answer.map(_.toSeq), answerCols)
      val exp = canon(dRows, dCols)
      require(got == exp, s"result mismatch: spark=${got.take(3)} duckdb=${exp.take(3)}")
    } finally conn.close()
  }
}

/** TPC-H Q1 or Q6 over LINEITEM at SF 0.1, sorted by l_shipdate into 32
  * gzip-Parquet files: ColdStore.prunedScan -> Queries.q1/q6 -> collect.
  */
final class ScanWorkload(ctx: Ctx, q1: Boolean) extends Workload {
  /** The query's rows, the prune result, and the Parquet files opened by the
    * footer catalog and by the whole operation (see CountingLocalFileSystem).
    */
  final case class Out(rows: Array[Row], prune: ColdStore.PruneStats, catalogOpens: Long,
                       opens: Long)

  private val ScaleFactor = 0.1
  private val NFiles      = 32
  private val dir         = s"${ctx.workDir}/lineitem"
  private val (lo, hi) =
    if (q1) ("1992-01-01", Queries.Q1CutoffDate) else (Queries.Q6DateLo, Queries.Q6DateHi)

  /** Operations keep getting faster for several runs of the footer catalog
    * as the JIT compiles Parquet's metadata path.
    */
  override def warmupOps: Int = 5

  private var spark: SparkSession = _
  private var expected: Seq[Row]  = Seq.empty
  private var tableRows           = 0L
  private var lastQuery: DataFrame = _

  private def query(df: DataFrame): DataFrame = if (q1) Queries.q1(df) else Queries.q6(df)

  def params: Map[String, String] = Map(
    "query" -> (if (q1) "Q1" else "Q6"), "scale_factor" -> ScaleFactor.toString,
    "files" -> NFiles.toString, "shipdate_range" -> s"$lo..$hi")

  def setUp(): Unit = {
    spark = ctx.startSpark()
    val lineitem = SynthData.lineitem(spark, ScaleFactor, ctx.seed)
    ctx.tr.span("coldstore.write") { ColdStore.write(lineitem, dir, NFiles) }
  }

  def verify(): Unit = ctx.tr.span("oracle.check") {
    tableRows = ColdStore.catalog(dir).map(_.rows).sum
    val (df, _) = ColdStore.prunedScan(spark, dir, lo, hi)
    val answer  = query(df)
    expected = answer.collect().toSeq
    // The oracle reads the whole store, so a file pruned by mistake shows.
    ParquetOracle.check(expected, answer.columns.toSeq,
      if (q1) Queries.q1DuckSql else Queries.q6DuckSql, dir,
      (if (q1) Queries.Q1Columns else Queries.Q6Columns).toSeq.sorted)
  }

  def operation(): Out = {
    val opened0     = CountingLocalFileSystem.opened
    val (df, prune) = ctx.tr.span("coldstore.prunedScan") { ColdStore.prunedScan(spark, dir, lo, hi) }
    val opened1     = CountingLocalFileSystem.opened
    val rows = ctx.tr.span("queries.execute") {
      lastQuery = query(df)
      lastQuery.collect()
    }
    Out(rows, prune, opened1 - opened0, CountingLocalFileSystem.opened - opened0)
  }

  def check(out: Out): Boolean = expected.nonEmpty && out.rows.toSeq == expected

  def rowsPerOp: Long = tableRows

  def storeBytes(out: Out): Long = ColdStore.catalog(dir).map(_.bytes).sum

  /** One GET per Parquet file the operation opened. */
  def usdPerOp(out: Out, seconds: Double): Double = out.opens * Pricing.S3GetPerRequest

  def traceOp(out: Out, sparkCounts: Map[String, Double]): Unit = {
    val prune = out.prune
    // Every file prunedScan opens: the catalog's footers and Spark's schema read.
    ctx.tr.count("coldstore.footers_read", out.catalogOpens)
    ctx.tr.count("coldstore.files_scanned", prune.survivingFiles)
    ctx.tr.count("coldstore.pruned_fraction", prune.prunedFraction)
    val decoded = sparkCounts.getOrElse("spark.input_records", 0.0)
    if (decoded > 0)
      ctx.tr.count("spark.kept_fraction", PlanMetrics.filterOutputRows(lastQuery) / decoded)
  }

  def tearDown(): Unit = ctx.stopSpark()
}

/** Multiset fingerprint of a set of records: count plus two independent
  * order-free 64-bit hash sums, so equal multisets always match and unequal
  * ones collide with negligible probability. Linear in the records.
  */
object Fingerprint {
  private def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
  def h1(x: Long): Long = mix(x)
  def h2(x: Long): Long = mix(x ^ 0x5DEECE66DL)
}

/** All six Table 2 variants of ServerlessExchange on a fresh MemS3 each, at
  * P = 729, over one seeded input of uniform random Long records.
  */
final class S3ExchangeWorkload(ctx: Ctx) extends Workload {
  /** (variant, result, its store) for each of ExchangeModel.Algorithms. */
  type Out = Vector[(ExchangeAlgo, ExchangeResult, MemS3)]

  private val P                = 729
  private val RecordsPerWorker = 4000

  /** The first operations still get faster as the JIT compiles every
    * variant's partitioning and copying loops.
    */
  override def warmupOps: Int = 2

  private var input: Vector[Array[Long]] = Vector.empty
  /** Per-partition (count, h1, h2) of the input. */
  private var expected: Array[Long] = Array.empty

  def params: Map[String, String] = Map(
    "workers" -> P.toString, "records_per_worker" -> RecordsPerWorker.toString,
    "variants" -> ExchangeModel.Algorithms.map(_.label).mkString(","))

  def setUp(): Unit = {
    input = ctx.tr.span("exchange.input_gen") {
      val rng = new java.util.SplittableRandom(ctx.seed)
      Vector.fill(P)(Array.fill(RecordsPerWorker)(rng.nextLong()))
    }
    expected = new Array[Long](3 * P)
    for (part <- input; x <- part) {
      val w = ServerlessExchange.partitionOf(x, P)
      expected(3 * w) += 1
      expected(3 * w + 1) += Fingerprint.h1(x)
      expected(3 * w + 2) += Fingerprint.h2(x)
    }
  }

  def verify(): Unit = ()

  def operation(): Out =
    ExchangeModel.Algorithms.toVector.map { algo =>
      val s3 = new MemS3
      val result = ctx.tr.span(s"exchange.${algo.label}") {
        ServerlessExchange.run(input, algo.levels, algo.writeCombining, s3 = s3)
      }
      (algo, result, s3)
    }

  /** Placement and multiset per partition in one linear pass, and measured
    * request counts against the closed forms.
    */
  def check(out: Out): Boolean = ctx.tr.span("exchange.check") {
    out.forall { case (algo, result, _) =>
      val counts = result.requests.gets == ExchangeModel.reads(algo, P) &&
        result.requests.puts == ExchangeModel.writes(algo, P) &&
        result.requests.lists == ExchangeModel.lists(algo, P)
      counts && result.data.size == P && (0 until P).forall { w =>
        var n = 0L; var a = 0L; var b = 0L; var placed = true
        for (x <- result.data(w)) {
          if (ServerlessExchange.partitionOf(x, P) != w) placed = false
          n += 1; a += Fingerprint.h1(x); b += Fingerprint.h2(x)
        }
        placed && n == expected(3 * w) && a == expected(3 * w + 1) && b == expected(3 * w + 2)
      }
    }
  }

  def rowsPerOp: Long = P.toLong * RecordsPerWorker * ExchangeModel.Algorithms.size

  /** Bytes of every object the six exchanges leave in their stores. */
  def storeBytes(out: Out): Long =
    out.map { case (_, _, s3) =>
      s3.bucketNames.toSeq.map { b =>
        s3.list(b, "").map(k => s3.get(b, k).fold(0L)(_.length.toLong * 8)).sum
      }.sum
    }.sum

  def usdPerOp(out: Out, seconds: Double): Double =
    out.map { case (_, r, _) =>
      r.requests.gets * Pricing.S3GetPerRequest + r.requests.puts * Pricing.S3PutPerRequest +
        r.requests.lists * Pricing.S3ListPerRequest
    }.sum

  def traceOp(out: Out, sparkCounts: Map[String, Double]): Unit = {
    val req = out.map(_._2.requests)
    ctx.tr.count("memS3.gets", req.map(_.gets).sum)
    ctx.tr.count("memS3.puts", req.map(_.puts).sum)
    ctx.tr.count("memS3.lists", req.map(_.lists).sum)
    ctx.tr.count("memS3.objects", out.map(_._3.objectCount).sum)
    ctx.tr.count("memS3.requests_per_record",
      req.map(r => r.gets + r.puts + r.lists).sum.toDouble / rowsPerOp)
  }

  def tearDown(): Unit = input = Vector.empty
}

/** SparkExchange.twoLevel then SparkExchange.direct at P = 64 over a cached
  * DataFrame from SynthData.uniformKeys.
  */
final class SparkExchangeWorkload(ctx: Ctx) extends Workload {
  /** Per-partition summaries of the two exchanges' outputs. */
  type Out = (Array[Long], Array[Long])

  private val P         = 64
  private val Rows      = 1L << 18
  private val WorkerMiB = 2048

  /** The first three operations still get faster as the JIT compiles
    * Spark's shuffle and Java-serialization paths.
    */
  override def warmupOps: Int = 3

  private var spark: SparkSession = _
  private var df: DataFrame       = _

  def params: Map[String, String] = Map(
    "workers" -> P.toString, "rows" -> Rows.toString, "keys" -> Rows.toString)

  def setUp(): Unit = {
    spark = ctx.startSpark()
    df = SynthData.uniformKeys(spark, Rows, Rows, ctx.seed).cache()
    ctx.tr.span("synthdata.cache") { df.count() }
  }

  /** Every operation's forcing pass already counts, per partition, the rows
    * off their target (SparkExchange.misplacedCount's quantity), so a
    * separate misplacedCount job would only repeat the exchange.
    */
  def verify(): Unit = ()

  def operation(): Out = {
    val two = ctx.tr.span("spark_exchange.two_level") {
      SparkExchangeWorkload.summarize(SparkExchange.twoLevel(df, P), P)
    }
    val direct = ctx.tr.span("spark_exchange.direct") {
      SparkExchangeWorkload.summarize(SparkExchange.direct(df, P), P)
    }
    (two, direct)
  }

  def check(out: Out): Boolean = ctx.tr.span("exchange.check") {
    val (two, direct) = out
    val parts = two.grouped(4).toVector
    parts.size == P && parts.zipWithIndex.forall { case (s, pid) => s(0) == pid } &&
      parts.map(_(1)).sum == Rows && parts.forall(_(2) == 0) &&
      java.util.Arrays.equals(two, direct)
  }

  def rowsPerOp: Long = 2 * Rows

  /** Bytes Spark's block manager holds for the cached input. */
  def storeBytes(out: Out): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  /** The exchange makes no storage requests, so this prices the operation's
    * time on `cores` workers of `WorkerMiB` at the Lambda rate: latency scaled
    * by a constant, reported because every run reports every metric.
    */
  def usdPerOp(out: Out, seconds: Double): Double =
    ctx.cores * seconds * Pricing.lambdaPerSecond(WorkerMiB)

  def traceOp(out: Out, sparkCounts: Map[String, Double]): Unit = ()

  override def traceRun(): Unit = {
    val (r1, r2) = SparkExchange.twoLevelRoundFiles(df, P)
    ctx.tr.count("spark_exchange.round_files", (r1 + r2).toDouble)
  }

  def tearDown(): Unit = ctx.stopSpark()
}

object SparkExchangeWorkload {
  /** Force an exchange with a per-partition count that also returns, for
    * each partition, how many rows sit off their target and a multiset
    * fingerprint of its (k, v) rows: four longs per partition, in order.
    */
  def summarize(exchanged: DataFrame, p: Int): Array[Long] = {
    val kIdx = exchanged.schema.fieldIndex("k")
    val vIdx = exchanged.schema.fieldIndex("v")
    exchanged.rdd.mapPartitionsWithIndex { (pid, it) =>
      var n = 0L; var misplaced = 0L; var h = 0L
      it.foreach { row =>
        val k = row.getLong(kIdx)
        n += 1
        if (SparkExchange.targetPartition(k, p) != pid) misplaced += 1
        h += Fingerprint.h1(k * 0x9E3779B97F4A7C15L ^ java.lang.Double.doubleToLongBits(row.getDouble(vIdx)))
      }
      Iterator(pid.toLong, n, misplaced, h)
    }.collect()
  }
}
