package repro

import java.nio.file.Files

import org.apache.commons.io.FileUtils

import repro.coldstore.ColdStore

/** The one cold store the Spark suites share: LINEITEM at SF 0.01, sorted by
  * l_shipdate into 32 gzip Parquet files, written once per JVM on first use.
  * At any SF, Q1's cutoff (1998-09-02) falls in file 30 and file 31 starts
  * on 1998-10-14, so Q1 prunes one whole file, standing in for the paper's
  * 320 files. The store, temporary root included, is deleted at JVM exit.
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
