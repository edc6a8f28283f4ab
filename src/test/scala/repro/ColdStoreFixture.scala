package repro

import java.nio.file.Files

import org.apache.commons.io.FileUtils

import repro.coldstore.ColdStore

/** The one cold store the Spark suites share: LINEITEM at SF 0.01, sorted by
  * l_shipdate into 32 gzip Parquet files, written once per JVM on first use.
  * 32 files leave at least one whole file beyond Q1's 95 % cutoff even at
  * SF 0.01, so file granularity stands in for the paper's 320 files. The
  * store, temporary root included, is deleted when the JVM exits.
  */
object ColdStoreFixture {
  val NFiles: Int = 32

  lazy val dir: String = {
    val root = Files.createTempDirectory("coldstore")
    sys.addShutdownHook(FileUtils.deleteDirectory(root.toFile))
    val d = s"$root/lineitem"
    ColdStore.write(SynthData.lineitem(SparkSpec.shared, sf = 0.01), d, NFiles)
    d
  }
}
