package repro.bench

import repro.SparkSpec
import repro.report.Tables
import repro.scan.ParquetLayout

/** Fig 10 — TPC-H Q1 across worker memory sizes and files-per-worker on the
  * paper-scale layout (320 files, SF 1000), with column fractions *measured*
  * from the real SF 0.1 cold store written by Spark. The same sweep over the
  * dbgen-16 fractions is `AllTablesJob fig10`, checked in `LambadaSimSpec`.
  */
class Fig10WorkerConfigBench extends SparkSpec {

  private lazy val measuredRows = {
    val fractions = BenchData.measuredFractions(this)
    Tables.fig10Rows(ParquetLayout.lineitemSf1000(fractions), fractions)
  }

  test("Fig 10: print the sweep with column fractions measured from the real SF 0.1 cold store") {
    println(Tables.renderFig10(measuredRows))
  }

  test("claim: growing workers from 512 to 1792 MiB is faster AND marginally cheaper") {
    val m512  = measuredRows.find(r => r.memoryMiB == 512 && r.filesPerWorker == 1).get
    val m1792 = measuredRows.find(r => r.memoryMiB == 1792 && r.filesPerWorker == 1).get
    assert(m1792.hot.latencySeconds < m512.hot.latencySeconds / 2)
    assert(m1792.hot.dollars < m512.hot.dollars)
  }

  test("claim: beyond 1792 MiB the price increases without improving speed") {
    val m1792 = measuredRows.find(r => r.memoryMiB == 1792 && r.filesPerWorker == 1).get
    val m3008 = measuredRows.find(r => r.memoryMiB == 3008 && r.filesPerWorker == 1).get
    assert(m3008.hot.dollars > 1.2 * m1792.hot.dollars)
    assert(m3008.hot.latencySeconds > 0.85 * m1792.hot.latencySeconds)
  }
}
