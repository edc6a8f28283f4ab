package repro.bench

import repro.{ColdStoreFixture, SparkSpec}
import repro.coldstore.ColdStore
import repro.scan.ParquetFile

/** Shared cold store for the benchmark suites: LINEITEM at SF 0.1 (~600k
  * rows of gzip Parquet), sorted by l_shipdate into 32 files — the
  * laptop-scale stand-in for the paper's 320 x ~500 MB files at SF 1000.
  * Built once per JVM.
  */
object BenchData {
  val ScaleFactor: Double = sys.env.getOrElse("BENCH_SF", "0.1").toDouble

  def dir(spec: SparkSpec): String = ColdStoreFixture.dir(spec, ScaleFactor)

  def layout(spec: SparkSpec): Vector[ParquetFile] = ColdStore.layout(dir(spec))

  def measuredFractions(spec: SparkSpec): Map[String, Double] =
    ColdStore.columnFractions(layout(spec))
}
