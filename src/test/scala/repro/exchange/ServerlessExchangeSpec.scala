package repro.exchange

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec

class ServerlessExchangeSpec extends AnyFunSuite with PropSpec {

  private def randomInput(p: Int, recordsPerWorker: Int, seed: Long = 1L): Vector[Array[Long]] = {
    val rng = new scala.util.Random(seed)
    Vector.fill(p)(Array.fill(recordsPerWorker)(rng.nextLong()))
  }

  private def assertCorrect(p: Int, levels: Int, wc: Boolean, records: Int = 20): RequestCounts = {
    val input = randomInput(p, records, seed = p * 31L + levels)
    val res   = ServerlessExchange.run(input, levels, wc)
    val got   = res.data.map(_.sorted.toVector)
    assert(got == ServerlessExchange.expectedPlacement(input, p),
      s"P=$p levels=$levels wc=$wc")
    res.requests
  }

  // ---- correctness of every algorithm variant ---------------------------

  test("BasicExchange (1l) redistributes correctly") { assertCorrect(16, 1, wc = false) }
  test("1l with write combining redistributes correctly") { assertCorrect(16, 1, wc = true) }
  test("TwoLevelExchange (2l) redistributes correctly") { assertCorrect(16, 2, wc = false) }
  test("2l with write combining redistributes correctly") { assertCorrect(16, 2, wc = true) }
  test("ThreeLevelExchange (3l) redistributes correctly") { assertCorrect(64, 3, wc = false) }
  test("3l with write combining redistributes correctly") { assertCorrect(64, 3, wc = true) }

  test("all six variants agree at P=64 (square and cube)") {
    for (levels <- Seq(1, 2, 3); wc <- Seq(false, true)) assertCorrect(64, levels, wc)
  }

  test("a large non-square P works for the basic algorithm") { assertCorrect(37, 1, wc = false) }

  test("single worker exchange is the identity") {
    val input = randomInput(1, 5)
    val res = ServerlessExchange.run(input, 1, writeCombining = false)
    assert(res.data.head.sorted.toSeq == input.head.sorted.toSeq)
  }

  test("empty workers are tolerated (some partitions receive nothing)") {
    val input = Vector(Array(0L, 4L, 8L), Array.empty[Long], Array(1L), Array.empty[Long])
    val res = ServerlessExchange.run(input, 2, writeCombining = true)
    assert(res.data.map(_.sorted.toVector) == ServerlessExchange.expectedPlacement(input, 4))
  }

  test("negative keys route to non-negative partitions") {
    val input = Vector(Array(-1L, -2L, -17L), Array(-64L, 3L), Array[Long](), Array(-5L))
    val res = ServerlessExchange.run(input, 2, writeCombining = false)
    assert(res.data.map(_.sorted.toVector) == ServerlessExchange.expectedPlacement(input, 4))
  }

  // ---- measured request counts match the Table 2 closed forms -----------

  test("Table 2: measured requests equal the closed forms at P=64") {
    for (algo <- ExchangeModel.Algorithms) {
      val counts = assertCorrect(64, algo.levels, algo.writeCombining)
      assert(counts.gets == ExchangeModel.reads(algo, 64), s"${algo.label} gets")
      assert(counts.puts == ExchangeModel.writes(algo, 64), s"${algo.label} puts")
      assert(counts.lists == ExchangeModel.lists(algo, 64), s"${algo.label} lists")
    }
  }

  test("Table 2: measured requests equal the closed forms at P=729") {
    for (algo <- ExchangeModel.Algorithms) {
      val counts = assertCorrect(729, algo.levels, algo.writeCombining, records = 4)
      assert(counts.gets == ExchangeModel.reads(algo, 729), s"${algo.label} gets")
      assert(counts.puts == ExchangeModel.writes(algo, 729), s"${algo.label} puts")
      assert(counts.lists == ExchangeModel.lists(algo, 729), s"${algo.label} lists")
    }
  }

  // ---- concurrent workers -------------------------------------------------

  private def assertRepeatable(p: Int, records: Int): Unit =
    for (algo <- ExchangeModel.Algorithms) {
      val input = randomInput(p, records, seed = p + algo.levels)
      def once() = ServerlessExchange.run(input, algo.levels, algo.writeCombining).data.map(_.toVector)
      assert(once() == once(), s"${algo.label}: output order differs between runs at P=$p")
    }

  test("concurrent workers return identical, identically ordered output at P=64") {
    assertRepeatable(64, 20)
  }

  test("concurrent workers return identical, identically ordered output at P=729") {
    assertRepeatable(729, 4)
  }

  test("a worker's failure reaches the caller as its own exception") {
    val input = randomInput(64, 4).updated(5, null)
    for (algo <- ExchangeModel.Algorithms)
      intercept[NullPointerException](ServerlessExchange.run(input, algo.levels, algo.writeCombining))
  }

  test("two levels reduce requests by sqrt(P)/2 versus basic (Section 4.4.2)") {
    val p = 256
    val basic = assertCorrect(p, 1, wc = false)
    val two   = assertCorrect(p, 2, wc = false)
    assert(basic.gets == p.toLong * p)
    assert(two.gets == 2L * p * 16)
    assert(basic.gets / two.gets == 8) // sqrt(256)/2
  }

  test("write combining cuts writes to k*P without changing reads") {
    val p = 256
    val plain = assertCorrect(p, 2, wc = false)
    val wc    = assertCorrect(p, 2, wc = true)
    assert(wc.gets == plain.gets)
    assert(wc.puts == 2L * p)
    assert(plain.puts == 2L * p * 16)
  }

  test("objects spread over multiple buckets (the rate-limit trick)") {
    val s3 = new MemS3
    ServerlessExchange.run(randomInput(64, 8), 1, writeCombining = false, numBuckets = 10, s3 = s3)
    assert(s3.bucketNames.size == 10)
  }

  test("P not a perfect power is rejected for multi-level exchanges") {
    intercept[IllegalArgumentException](
      ServerlessExchange.run(randomInput(15, 4), 2, writeCombining = false))
    intercept[IllegalArgumentException](
      ServerlessExchange.run(randomInput(100, 4), 3, writeCombining = false))
  }

  test("exactRoot identifies perfect powers exactly") {
    assert(ServerlessExchange.exactRoot(64, 2).contains(8))
    assert(ServerlessExchange.exactRoot(64, 3).contains(4))
    assert(ServerlessExchange.exactRoot(729, 3).contains(9))
    assert(ServerlessExchange.exactRoot(63, 2).isEmpty)
    assert(ServerlessExchange.exactRoot(1, 3).contains(1))
  }

  test("partitionOf is stable and in range for extreme keys") {
    for (k <- Seq(Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue)) {
      val part = ServerlessExchange.partitionOf(k, 7)
      assert(part >= 0 && part < 7)
    }
  }

  // ---- properties --------------------------------------------------------

  checkProp("any square P, any records: 2l +- wc equals direct placement") {
    val gen = for {
      s    <- Gen.choose(2, 9)
      n    <- Gen.choose(0, 30)
      wc   <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, 10000L)
    } yield (s * s, n, wc, seed)
    Prop.forAll(gen) { case (p, n, wc, seed) =>
      val input = randomInput(p, n, seed)
      val res   = ServerlessExchange.run(input, 2, wc)
      res.data.map(_.sorted.toVector) == ServerlessExchange.expectedPlacement(input, p)
    }
  }

  checkProp("skewed keys (all equal) land on one worker, others empty") {
    Prop.forAll(Gen.choose(2, 8), Gen.choose(0L, 1000L)) { (s, key) =>
      val p     = s * s
      val input = Vector.fill(p)(Array.fill(5)(key))
      val res   = ServerlessExchange.run(input, 2, writeCombining = true)
      val owner = ServerlessExchange.partitionOf(key, p)
      res.data(owner).length == 5 * p &&
        res.data.zipWithIndex.forall { case (d, i) => i == owner || d.isEmpty }
    }
  }

  checkProp("record multiset is preserved by every variant") {
    val gen = for {
      levels <- Gen.oneOf(1, 2, 3)
      wc     <- Gen.oneOf(true, false)
      seed   <- Gen.choose(0L, 9999L)
    } yield (levels, wc, seed)
    Prop.forAll(gen) { case (levels, wc, seed) =>
      val p     = 64
      val input = randomInput(p, 11, seed)
      val res   = ServerlessExchange.run(input, levels, wc)
      res.data.flatten.sorted.toSeq == input.flatten.sorted.toSeq
    }
  }
}
