package repro.scan

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec

class ParquetLayoutSpec extends AnyFunSuite with PropSpec {

  test("default column fractions sum to 1 over the 16 dbgen columns") {
    assert(ParquetLayout.LineitemColumnFractions.size == 16)
    assert(math.abs(ParquetLayout.LineitemColumnFractions.values.sum - 1.0) < 1e-9)
  }

  test("columnFractions recovers the dbgen-16 fractions the SF 1000 layout is built from") {
    val f        = ParquetLayout.LineitemColumnFractions
    val measured = ParquetLayout.columnFractions(ParquetLayout.lineitemSf1000(f))
    assert(measured.keySet == f.keySet)
    f.foreach { case (c, x) => assert(math.abs(measured(c) - x) < 1e-6, c) }
  }

  test("SF 1000 layout: 320 files of ~151 GiB total (Section 5.1)") {
    val files = ParquetLayout.lineitemSf1000()
    assert(files.size == 320)
    val total = files.map(_.bytes).sum.toDouble
    assert(math.abs(total - 151.0 * 1024 * 1024 * 1024) / total < 0.01)
    assert(files.map(_.rows).sum == 6000000000L, "SF 1000 holds 6 billion rows")
    // ~500 MB per file as in the paper's best-practice layout
    assert(files.forall(f => f.bytes > 400e6 && f.bytes < 600e6))
  }

  test("SF 10000 layout is the SF 1000 files replicated ten times") {
    val big = ParquetLayout.lineitemSf10000()
    assert(big.size == 3200)
    assert(big.map(_.path).distinct.size == 3200)
    assert(big.map(_.bytes).sum == 10 * ParquetLayout.lineitemSf1000().map(_.bytes).sum)
  }

  test("sorted layout: file i covers key slice [i/n, (i+1)/n]") {
    val files = ParquetLayout.sortedTable(10, 1000000, 1000)
    files.zipWithIndex.foreach { case (f, i) =>
      assert(math.abs(f.minKey - i / 10.0) < 1e-9)
      assert(math.abs(f.maxKey - (i + 1) / 10.0) < 1e-9)
    }
  }

  test("row groups within a file partition its key slice") {
    val f = ParquetLayout.sortedTable(4, 100000, 1000, rowGroupsPerFile = 5)(2)
    assert(f.rowGroups.size == 5)
    f.rowGroups.sliding(2).foreach { case Seq(a, b) => assert(a.maxKey == b.minKey) }
  }

  test("pruning a range keeps exactly the overlapping row groups") {
    val f = ParquetLayout.sortedTable(1, 100000, 1000, rowGroupsPerFile = 10).head
    assert(f.prune(0.0, 1.0).size == 10)
    assert(f.prune(0.35, 0.45).size == 2)    // [0.3,0.4] and [0.4,0.5]
    assert(f.prune(2.0, 3.0).isEmpty)
  }

  test("pruning is conservative: boundary-touching groups survive") {
    val f = ParquetLayout.sortedTable(1, 100000, 1000, rowGroupsPerFile = 10).head
    assert(f.prune(0.2, 0.2).nonEmpty) // exact boundary between groups 1 and 2
  }

  test("bytesOf selects only the requested columns") {
    val f  = ParquetLayout.lineitemSf1000().head
    val rg = f.rowGroups.head
    val q1 = rg.bytesOf(repro.core.Queries.Q1Columns)
    assert(q1 > 0 && q1 < rg.bytes)
    assert(rg.bytesOf(Set.empty) == 0)
    assert(rg.bytesOf(ParquetLayout.LineitemColumnFractions.keySet) == rg.bytes)
  }

  test("Q1 reads ~41 % and Q6 ~33 % of a file's bytes under the dbgen-16 layout") {
    val fr = ParquetLayout.LineitemColumnFractions
    val q1 = repro.core.Queries.Q1Profile.usedFraction(fr)
    val q6 = repro.core.Queries.Q6Profile.usedFraction(fr)
    assert(q1 > 0.35 && q1 < 0.48, s"q1=$q1")
    assert(q6 > 0.28 && q6 < 0.38, s"q6=$q6")
    assert(q1 > q6, "Q1 uses more attributes than Q6 (Section 5.3)")
  }

  test("invalid layouts are rejected") {
    intercept[IllegalArgumentException](ParquetLayout.sortedTable(0, 100, 10))
    intercept[IllegalArgumentException](
      ParquetLayout.sortedTable(2, 100, 10, columnFractions = Map("a" -> 0.5)))
    intercept[IllegalArgumentException](RowGroup(0.5, 0.4, 0, Seq.empty))
    intercept[IllegalArgumentException](ColumnChunk("c", -1))
  }

  checkProp("a key in [lo, hi] is always inside some surviving row group") {
    val gen = for {
      n   <- Gen.choose(1, 20)
      rg  <- Gen.choose(1, 8)
      lo  <- Gen.choose(0.0, 1.0)
      len <- Gen.choose(0.0, 0.5)
    } yield (n, rg, lo, math.min(1.0, lo + len))
    Prop.forAll(gen) { case (n, rgs, lo, hi) =>
      val files = ParquetLayout.sortedTable(n, 100000L * n, 1000L * n, rowGroupsPerFile = rgs)
      val surviving = files.flatMap(_.prune(lo, hi))
      // every point of [lo,hi] within the key domain is covered
      val mid = (lo + hi) / 2
      surviving.exists(g => g.minKey <= mid && g.maxKey >= mid)
    }
  }

  checkProp("pruned bytes never exceed total bytes and shrink with the range") {
    Prop.forAll(Gen.choose(0.0, 0.5)) { lo =>
      val f    = ParquetLayout.sortedTable(1, 1000000, 1000, rowGroupsPerFile = 16).head
      val wide = f.prune(lo, 1.0).map(_.bytes).sum
      val slim = f.prune(lo, math.min(1.0, lo + 0.1)).map(_.bytes).sum
      slim <= wide && wide <= f.bytes
    }
  }
}
