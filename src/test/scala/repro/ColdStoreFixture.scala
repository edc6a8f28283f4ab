package repro

import java.nio.file.Files

import repro.coldstore.ColdStore

/** The one cold store the Spark suites share: LINEITEM at scale factor `sf`,
  * sorted by l_shipdate into 32 gzip Parquet files, written once per JVM for
  * each scale factor. 32 files leave at least one whole file beyond Q1's
  * 95 % cutoff even at SF 0.01, so file granularity stands in for the
  * paper's 320 files.
  */
object ColdStoreFixture {
  val NFiles: Int = 32

  private val dirs = scala.collection.mutable.Map.empty[Double, String]

  def dir(spec: SparkSpec, sf: Double = 0.01): String = synchronized {
    dirs.getOrElseUpdate(sf, {
      val d = Files.createTempDirectory("coldstore").toString + "/lineitem"
      ColdStore.write(SynthData.lineitem(spec.spark, sf), d, NFiles)
      d
    })
  }
}
