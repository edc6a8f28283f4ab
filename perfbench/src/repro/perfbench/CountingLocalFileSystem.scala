package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.hadoop.fs.{FSDataInputStream, LocalFileSystem, Path}

/** Hadoop's local file system, counting every file opened for reading.
  *
  * `perfbench-site.xml` installs it for the `file` scheme in every Hadoop
  * Configuration, so the driver's footer catalog (`ColdStore.catalog`) and
  * Spark's Parquet readers both go through it. Opening a Parquet file is
  * what a GET is on S3, so the cold store's request count is measured where
  * the reads happen rather than inferred from the prune result. Checksum
  * files are opened on the raw file system underneath and are not counted.
  */
final class CountingLocalFileSystem extends LocalFileSystem {
  override def open(f: Path, bufferSize: Int): FSDataInputStream = {
    CountingLocalFileSystem.opens.incrementAndGet()
    super.open(f, bufferSize)
  }
}

object CountingLocalFileSystem {
  private val opens = new AtomicLong

  /** Files opened for reading since the JVM started. */
  def opened: Long = opens.get
}
