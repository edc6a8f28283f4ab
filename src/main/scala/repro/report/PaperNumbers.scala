package repro.report

/** The paper's published numbers, kept next to ours in every reproduced
  * table so EXPERIMENTS.md can diff them. Source: Müller et al., SIGMOD
  * 2020 (section/table/figure noted per constant).
  */
object PaperNumbers {

  /** Table 1 — characteristics of function invocations, per region. */
  val Table1: Map[String, (Double, Double, Double)] = Map(
    // region -> (single invocation [ms], concurrent rate [inv/s], intra-region rate [inv/s])
    "eu" -> (36.0, 294.0, 81.0),
    "us" -> (363.0, 276.0, 79.0),
    "sa" -> (474.0, 243.0, 84.0),
    "ap" -> (536.0, 222.0, 81.0),
  )

  /** Fig 5: invoking 4096 workers from the driver alone takes 13-18 s. */
  val Fig5DriverOnlySecondsRange: (Double, Double) = (13.0, 18.0)

  /** Fig 4: largest worker (3008 MiB) reaches 1.67x with two threads. */
  val Fig4MaxRelativeThroughput: Double = 1.67

  /** Fig 6b: small files burst to almost 300 MiB/s with several connections. */
  val Fig6SmallFileBurstMiBps: Double = 300.0
  /** Fig 7: at 1 MiB chunks requests cost 1.7x the workers. */
  val Fig7RequestToWorkerRatioAt1MiB: Double = 1.7

  /** Fig 9 context: 4k workers on 4 TiB — requests ~$100, workers ~$3.3. */
  val Fig9BasicExchange4kRequestUsd: Double = 100.0
  val Fig9Workers4kUsd: Double = 3.3

  /** Table 3 — exchange on 100 GB: system -> (workers -> seconds). */
  val Table3PocketVm: Map[Int, Double]  = Map(250 -> 58.0, 500 -> 28.0, 1000 -> 18.0)
  val Table3PocketS3: Map[Int, Double]  = Map(250 -> 98.0)
  val Table3LocusRange: (Double, Double) = (80.0, 140.0)
  val Table3Lambada: Map[Int, Double]   = Map(250 -> 22.0, 500 -> 15.0, 1000 -> 13.0)

  /** Section 5.5: bigger exchanges. */
  val Exchange1TbWorkers: Int = 1250
  val Exchange1TbSeconds: Double = 56.0
  val Exchange3TbWorkers: Int = 2500
  val Exchange3TbSeconds: Double = 159.0
  /** Fig 13: 1 TB fastest worker ~85 % of slowest; slowest writer ~4x (vs
    * ~1.3x at 1 TB) the median on 3 TB.
    */
  val Fig13OneTbFastestOverSlowest: Double = 0.85
  val Fig13WriteTailRatioSmall: Double = 1.3
  val Fig13WriteTailRatioBig: Double = 4.0

  /** Section 5.2 / Fig 10: Q1 at SF 1000, 320 files; hot and cold < 10 s;
    * cold ~20 % slower; 1792 MiB fastest-and-cheap; larger sizes dearer,
    * not faster.
    */
  val Fig10LatencyCeilingSeconds: Double = 10.0
  val Fig10ColdPenalty: Double = 1.2

  /** Fig 11: fast class 100-200 ms, slow class 2-3 s. */
  val Fig11FastClassSecondsRange: (Double, Double) = (0.1, 0.2)
  val Fig11SlowClassSecondsRange: (Double, Double) = (2.0, 3.0)

  /** Fig 12 / Section 5.4.2: latency ratios Athena/Lambada. */
  val Fig12AthenaOverLambadaQ1Sf1k: Double  = 4.0
  val Fig12AthenaOverLambadaQ1Sf10k: Double = 26.0
  val Fig12AthenaOverLambadaQ6Sf10k: Double = 15.0
  /** BigQuery's position relative to Lambada at SF 10k. */
  val Fig12BigQueryOverLambadaQ1Sf10k: Double = 2.3  // BQ slower
  val Fig12LambadaOverBigQueryQ6Sf10k: Double = 2.0  // BQ faster
  val Fig12BigQueryLoadSf1kMinutes: Double = 40.0
  val Fig12BigQueryLoadSf10kHours: Double = 6.7
  /** Cost gaps: ~1 order of magnitude vs Athena, ~2 vs BigQuery (except Q6
    * at SF 1k where Lambada is only slightly cheaper than Athena).
    */
  val Fig12CostGapAthenaOrders: Double = 1.0
  val Fig12CostGapBigQueryOrders: Double = 2.0
}
