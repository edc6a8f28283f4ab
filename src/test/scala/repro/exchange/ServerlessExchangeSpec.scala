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
    // Each variant runs twice on one input: the second run must also return
    // the first's output in the same order, whatever the workers' schedule.
    for (algo <- ExchangeModel.Algorithms) {
      val input = randomInput(729, 4, seed = 729 * 31L + algo.levels)
      def once() = ServerlessExchange.run(input, algo.levels, algo.writeCombining)
      val first = once()
      assert(first.data.map(_.sorted.toVector) == ServerlessExchange.expectedPlacement(input, 729),
        s"${algo.label} placement")
      val counts = first.requests
      assert(counts.gets == ExchangeModel.reads(algo, 729), s"${algo.label} gets")
      assert(counts.puts == ExchangeModel.writes(algo, 729), s"${algo.label} puts")
      assert(counts.lists == ExchangeModel.lists(algo, 729), s"${algo.label} lists")
      assert(once().data.map(_.toVector) == first.data.map(_.toVector),
        s"${algo.label}: output order differs between runs at P=729")
    }
  }

  // ---- concurrent workers -------------------------------------------------

  test("concurrent workers return identical, identically ordered output at P=64") {
    for (algo <- ExchangeModel.Algorithms) {
      val input = randomInput(64, 20, seed = 64 + algo.levels)
      def once() = ServerlessExchange.run(input, algo.levels, algo.writeCombining).data.map(_.toVector)
      assert(once() == once(), s"${algo.label}: output order differs between runs at P=64")
    }
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

  private def assertMatchesClosedForms(p: Int, algo: ExchangeAlgo, records: Int): Unit = {
    val counts = assertCorrect(p, algo.levels, algo.writeCombining, records)
    assert(counts == RequestCounts(ExchangeModel.reads(algo, p), ExchangeModel.writes(algo, p),
      ExchangeModel.lists(algo, p)), s"${algo.label} at P=$p")
  }

  test("P not a perfect power: exact placement, closed-form counts") {
    for (wc <- Seq(false, true)) {
      assertMatchesClosedForms(15, ExchangeAlgo(2, wc), records = 4)
      assertMatchesClosedForms(100, ExchangeAlgo(3, wc), records = 4)
    }
  }

  test("Table 3's worker counts (P=250, 500, 1000) run at two and three levels") {
    for (p <- Seq(250, 500, 1000); algo <- ExchangeModel.Algorithms if algo.levels > 1)
      assertMatchesClosedForms(p, algo, records = 4)
  }

  test("fewer than one bucket is rejected before any worker runs") {
    for (buckets <- Seq(0, -1)) {
      val s3 = new MemS3
      intercept[IllegalArgumentException](
        ServerlessExchange.run(randomInput(4, 2), 2, writeCombining = false, numBuckets = buckets, s3 = s3))
      assert(s3.putCount.get() == 0)
    }
  }

  test("partitionOf is stable and in range for extreme keys") {
    for (k <- Seq(Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue)) {
      val part = ServerlessExchange.partitionOf(k, 7)
      assert(part >= 0 && part < 7)
    }
  }

  // ---- output pinned across changes ----------------------------------------

  /** Order-sensitive fingerprint of every worker's output, lengths included. */
  private def fingerprint(data: Vector[Array[Long]]): Long = {
    var h = 17L
    for (a <- data) { h = h * 1000003L + a.length; for (x <- a) h = h * 1000003L + x }
    h
  }

  /** Fixed values, not recomputed: a change that reorders any worker's
    * output moves them, even when each run repeats itself.
    */
  private val pinned: Map[(Int, String), (Long, RequestCounts)] = Map(
    (16, "1l")    -> (-3595124476937851509L, RequestCounts(256, 256, 0)),
    (16, "1l-wc") -> (-5487312246315680885L, RequestCounts(256, 16, 16)),
    (16, "2l")    -> (-3454559354108350581L, RequestCounts(128, 128, 0)),
    (16, "2l-wc") -> (-4732818390470920789L, RequestCounts(128, 32, 32)),
    (16, "3l")    -> (-211228503427679477L, RequestCounts(128, 128, 0)),
    (16, "3l-wc") -> (-2230628288788274229L, RequestCounts(128, 48, 48)),
    (64, "1l")    -> (-7453395789004235167L, RequestCounts(4096, 4096, 0)),
    (64, "1l-wc") -> (2299234330439154529L, RequestCounts(4096, 64, 64)),
    (64, "2l")    -> (4119919584654562785L, RequestCounts(1024, 1024, 0)),
    (64, "2l-wc") -> (-2289966800394443679L, RequestCounts(1024, 128, 128)),
    (64, "3l")    -> (9064585876215530209L, RequestCounts(768, 768, 0)),
    (64, "3l-wc") -> (8790393546647750113L, RequestCounts(768, 192, 192)),
  )

  test("every variant's output order and request counts match the pinned values at P=16 and 64") {
    for (p <- Seq(16, 64); algo <- ExchangeModel.Algorithms) {
      val rng   = new scala.util.Random(p.toLong)
      val input = Vector.fill(p)(Array.fill(rng.nextInt(40))(rng.nextLong())) // 0-39 records each
      val res   = ServerlessExchange.run(input, algo.levels, algo.writeCombining)
      assert((fingerprint(res.data), res.requests) == pinned((p, algo.label)), s"${algo.label} at P=$p")
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

  checkProp("any P <= 400, every variant: exact placement, counts equal the closed forms",
      minSuccessful = 200) {
    val gen = for {
      p    <- Gen.choose(1, 400)
      algo <- Gen.oneOf(ExchangeModel.Algorithms)
      n    <- Gen.choose(0, 4)
      seed <- Gen.choose(0L, 10000L)
    } yield (p, algo, n, seed)
    Prop.forAll(gen) { case (p, algo, n, seed) =>
      val input = randomInput(p, n, seed)
      val res   = ServerlessExchange.run(input, algo.levels, algo.writeCombining)
      res.data.map(_.sorted.toVector) == ServerlessExchange.expectedPlacement(input, p) &&
        res.requests == RequestCounts(ExchangeModel.reads(algo, p), ExchangeModel.writes(algo, p),
          ExchangeModel.lists(algo, p))
    }
  }

  checkProp("partitionOf equals the two-remainder formula for any key and any p in [1, 5000]",
      minSuccessful = 500) {
    val key = Gen.frequency(
      9 -> Gen.choose(Long.MinValue, Long.MaxValue),
      1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, -1L, 0L))
    Prop.forAll(key, Gen.choose(1, 5000)) { (k, p) =>
      ServerlessExchange.partitionOf(k, p) == (((k % p) + p) % p).toInt
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
