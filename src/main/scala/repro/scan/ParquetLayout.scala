package repro.scan

/** Compressed size of one column chunk inside a row group. */
final case class ColumnChunk(column: String, bytes: Long) {
  require(bytes >= 0, "column chunk bytes must be non-negative")
}

/** One Parquet row group as its footer entry describes it: min/max
  * statistics on the table's sort key (normalized to [0, 1] over the key
  * domain; (-inf, +inf) when the footer has none), its row count and its
  * column chunks.
  */
final case class RowGroup(minKey: Double, maxKey: Double, rows: Long, chunks: Seq[ColumnChunk]) {
  require(minKey <= maxKey, s"row group stats inverted: [$minKey, $maxKey]")
  def bytes: Long = chunks.map(_.bytes).sum
  def bytesOf(columns: Set[String]): Long =
    chunks.filter(c => columns.contains(c.column)).map(_.bytes).sum
  /** Whether the row group may contain keys in [lo, hi] (conservative). */
  def overlaps(lo: Double, hi: Double): Boolean = maxKey >= lo && minKey <= hi
}

/** One Parquet file as the scan operator sees it: a footer (fetched with one
  * request) and a sequence of row groups (Section 4.3.2, Fig 8). A file of
  * an empty table has none, and every range prunes it.
  */
final case class ParquetFile(path: String, rowGroups: Seq[RowGroup], footerBytes: Long) {
  def bytes: Long = rowGroups.map(_.bytes).sum + footerBytes
  def rows: Long = rowGroups.map(_.rows).sum
  def minKey: Double = rowGroups.map(_.minKey).min
  def maxKey: Double = rowGroups.map(_.maxKey).max
  /** Row groups surviving a min/max prune against key range [lo, hi]. */
  def prune(lo: Double, hi: Double): Seq[RowGroup] = rowGroups.filter(_.overlaps(lo, hi))
}

/** Builders for synthetic table layouts matching the paper's dataset: the
  * LINEITEM relation sorted globally by `l_shipdate` and written into equal
  * files of ~500 MB (Section 5.1), so each file covers a contiguous slice of
  * the key domain and min/max pruning maps ranges to file subsets.
  */
object ParquetLayout {

  /** Per-column fraction of the compressed bytes of the paper's LINEITEM.
    *
    * The paper modifies dbgen so *all 16* TPC-H columns are numbers
    * (Section 5.1); these fractions approximate the gzip Parquet footprint
    * of that 16-column table, so the default layout matches the paper's
    * per-query byte fractions (Q1 reads ~41 %, Q6 ~33 % of a file).
    * `ColdStoreJob` and `LambadaSimSpec` also build layouts from fractions
    * *measured* on the real 10-column cold-store files: `columnFractions`
    * over `ColdStore.catalog`.
    */
  val LineitemColumnFractions: Map[String, Double] = Map(
    "l_orderkey"      -> 0.09,
    "l_partkey"       -> 0.09,
    "l_suppkey"       -> 0.08,
    "l_linenumber"    -> 0.02,
    "l_quantity"      -> 0.07,
    "l_extendedprice" -> 0.12,
    "l_discount"      -> 0.04,
    "l_tax"           -> 0.04,
    "l_returnflag"    -> 0.02,
    "l_linestatus"    -> 0.02,
    "l_shipdate"      -> 0.10,
    "l_commitdate"    -> 0.10,
    "l_receiptdate"   -> 0.10,
    "l_shipinstruct"  -> 0.02,
    "l_shipmode"      -> 0.03,
    "l_comment"       -> 0.06,
  )

  /** Build a sorted table layout: `nFiles` files over `totalBytes` and
    * `totalRows`, each with `rowGroupsPerFile` equal row groups; file *i*
    * covers key slice [i/nFiles, (i+1)/nFiles] of the normalized sort-key
    * domain.
    */
  def sortedTable(
      nFiles: Int,
      totalBytes: Long,
      totalRows: Long,
      columnFractions: Map[String, Double] = LineitemColumnFractions,
      rowGroupsPerFile: Int = 4,
  ): Vector[ParquetFile] = {
    require(nFiles >= 1 && rowGroupsPerFile >= 1 && totalBytes > 0 && totalRows >= 0,
      "invalid layout parameters")
    val fracSum = columnFractions.values.sum
    require(math.abs(fracSum - 1.0) < 1e-6, s"column fractions must sum to 1, got $fracSum")
    val bytesPerRg = totalBytes / nFiles / rowGroupsPerFile
    val rowsPerRg  = totalRows / nFiles / rowGroupsPerFile
    Vector.tabulate(nFiles) { i =>
      val fileLo = i.toDouble / nFiles
      val fileHi = (i + 1).toDouble / nFiles
      val rgs = Vector.tabulate(rowGroupsPerFile) { j =>
        val lo = fileLo + (fileHi - fileLo) * j / rowGroupsPerFile
        val hi = fileLo + (fileHi - fileLo) * (j + 1) / rowGroupsPerFile
        RowGroup(lo, hi, rowsPerRg,
          columnFractions.toSeq.sortBy(_._1).map { case (c, f) =>
            ColumnChunk(c, math.max(1L, (bytesPerRg * f).toLong))
          })
      }
      ParquetFile(f"part-$i%05d.parquet", rgs, footerBytes = 64 * 1024)
    }
  }

  /** The paper's SF 1000 LINEITEM: 6 billion rows, 151 GiB of gzip Parquet
    * in 320 files.
    */
  def lineitemSf1000(columnFractions: Map[String, Double] = LineitemColumnFractions)
      : Vector[ParquetFile] =
    sortedTable(nFiles = 320, totalBytes = 151L * 1024 * 1024 * 1024, totalRows = 6000000000L,
      columnFractions)

  /** Per-column fraction of the compressed column-chunk bytes across `files`. */
  def columnFractions(files: Seq[ParquetFile]): Map[String, Double] = {
    val byCol = files.flatMap(_.rowGroups).flatMap(_.chunks)
      .groupMapReduce(_.column)(_.bytes)(_ + _)
    val total = byCol.values.sum.toDouble
    require(total > 0, "empty layout")
    byCol.map { case (c, b) => c -> b / total }
  }

  /** SF 10000 = the SF 1000 files replicated ten times (Section 5.1). */
  def lineitemSf10000(sf1000: Vector[ParquetFile] = lineitemSf1000()): Vector[ParquetFile] =
    Vector.tabulate(10)(r => sf1000.map(f => f.copy(path = s"rep-$r/${f.path}"))).flatten
}
