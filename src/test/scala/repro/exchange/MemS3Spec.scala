package repro.exchange

import java.util.concurrent.Executors

import org.scalatest.funsuite.AnyFunSuite

class MemS3Spec extends AnyFunSuite {

  test("put then get round-trips an object and counts one of each") {
    val s3 = new MemS3
    s3.put("b", "k", Array(1L, 2L, 3L))
    assert(s3.get("b", "k").get.toSeq == Seq(1L, 2L, 3L))
    assert(s3.putCount.get == 1 && s3.getCount.get == 1)
  }

  test("get of a missing object returns None but still costs a request (polling)") {
    val s3 = new MemS3
    assert(s3.get("b", "nope").isEmpty)
    assert(s3.getCount.get == 1)
  }

  test("ranged get returns the requested record slice") {
    val s3 = new MemS3
    s3.put("b", "k", Array.tabulate(10)(_.toLong))
    assert(s3.getRange("b", "k", 3, 7).get.toSeq == Seq(3L, 4L, 5L, 6L))
    assert(s3.getRange("b", "k", 0, 0).get.isEmpty)
  }

  test("ranged get clamps to the object: a tail past the end, nothing when from >= until") {
    val s3 = new MemS3
    s3.put("b", "k", Array.tabulate(10)(_.toLong))
    assert(s3.getRange("b", "k", 7, 25).get.toSeq == Seq(7L, 8L, 9L))
    assert(s3.getRange("b", "k", 6, 6).get.isEmpty)
    assert(s3.getRange("b", "k", 8, 3).get.isEmpty)
    assert(s3.getRange("b", "k", 12, 20).get.isEmpty)
    assert(s3.getCount.get == 4)
  }

  test("ranged get of a missing object returns None but still costs one GET") {
    val s3 = new MemS3
    s3.put("b", "k", Array(1L))
    assert(s3.getRange("b", "nope", 0, 1).isEmpty)
    assert(s3.getCount.get == 1)
  }

  test("reads of a bucket never written count one request each and create no bucket") {
    val s3 = new MemS3
    assert(s3.get("nope", "k").isEmpty)
    assert(s3.list("nope", "").isEmpty)
    assert(s3.getRange("nope", "k", 0, 1).isEmpty)
    assert(s3.getCount.get == 2 && s3.listCount.get == 1)
    assert(s3.bucketNames.isEmpty && s3.objectCount == 0)
  }

  test("list filters by prefix and returns sorted names") {
    val s3 = new MemS3
    s3.put("b", "r1/snd-2", Array(1L))
    s3.put("b", "r1/snd-10", Array(2L))
    s3.put("b", "r2/snd-1", Array(3L))
    assert(s3.list("b", "r1/") == Vector("r1/snd-10", "r1/snd-2"))
    assert(s3.listCount.get == 1)
  }

  test("buckets are independent namespaces") {
    val s3 = new MemS3
    s3.put("b0", "k", Array(1L))
    s3.put("b1", "k", Array(2L))
    assert(s3.get("b0", "k").get.head == 1L)
    assert(s3.get("b1", "k").get.head == 2L)
    assert(s3.bucketNames == Set("b0", "b1"))
  }

  test("puts overwrite, object count tracks distinct keys") {
    val s3 = new MemS3
    s3.put("b", "k", Array(1L))
    s3.put("b", "k", Array(2L))
    assert(s3.objectCount == 1)
    assert(s3.get("b", "k").get.head == 2L)
  }

  test("resetCounters zeroes all counters without dropping data") {
    val s3 = new MemS3
    s3.put("b", "k", Array(1L)); s3.get("b", "k"); s3.list("b", "")
    s3.resetCounters()
    assert(s3.putCount.get == 0 && s3.getCount.get == 0 && s3.listCount.get == 0)
    assert(s3.get("b", "k").nonEmpty)
  }

  test("concurrent puts and gets of distinct keys are all counted and all read back") {
    val s3      = new MemS3
    val threads = 4
    val keys    = for (t <- 0 until threads * 2; i <- 0 until 500)
                    yield (s"b${i % 3}", s"t$t/k$i", Array(t.toLong, i.toLong))
    val pool    = Executors.newFixedThreadPool(threads)
    def onPool[A](f: ((String, String, Array[Long])) => A): Seq[A] =
      keys.grouped(500).toSeq.map(chunk => pool.submit[Seq[A]](() => chunk.map(f))).flatMap(_.get)
    try {
      onPool { case (b, k, v) => s3.put(b, k, v) }
      val got = onPool { case (b, k, v) => s3.get(b, k).exists(_.sameElements(v)) }
      assert(got.forall(identity))
    } finally pool.shutdown()
    assert(s3.putCount.get == keys.size && s3.getCount.get == keys.size)
    assert(s3.objectCount == keys.size)
    assert(s3.bucketNames == Set("b0", "b1", "b2"))
  }
}
