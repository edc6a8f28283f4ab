package repro.exchange

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSpec

class GridSpec extends AnyFunSuite with PropSpec {

  /** Smallest sum of `k` factors whose product is `p`, by trying every factor. */
  private def bruteForceMinSum(p: Int, k: Int): Int =
    if (k == 1) p
    else (1 to p).filter(p % _ == 0).map(r => r + bruteForceMinSum(p / r, k - 1)).min

  test("radices on the perfect and imperfect powers the exchange runs at") {
    def radices(p: Int, k: Int) = Grid(p, k).radices
    assert(radices(64, 2) == Vector(8, 8))
    assert(radices(64, 3) == Vector(4, 4, 4))
    assert(radices(729, 3) == Vector(9, 9, 9))
    assert(radices(63, 2) == Vector(9, 7))
    assert(radices(1, 3) == Vector(1, 1, 1))
    assert(radices(250, 2) == Vector(25, 10))
    assert(radices(1000, 3) == Vector(10, 10, 10))
    assert(radices(13, 2) == Vector(13, 1))
    assert(radices(37, 1) == Vector(37))
  }

  test("the two-level grid at P=64 is the row-major 8 x 8 grid") {
    val grid = Grid(64, 2)
    assert(grid.shift(0) == 8 && grid.shift(1) == 1)
    for (id <- 0 until 64) {
      assert(grid.coord(id, 0) == id / 8)
      assert(grid.coord(id, 1) == id % 8)
    }
  }

  test("non-positive worker or level counts are rejected") {
    intercept[IllegalArgumentException](Grid(0, 2))
    intercept[IllegalArgumentException](Grid(16, 0))
  }

  checkProp("any p <= 500, k <= 3: radices multiply to p, largest first, with the least sum",
      minSuccessful = 200) {
    Prop.forAll(Gen.choose(1, 500), Gen.choose(1, 3)) { (p, k) =>
      val r = Grid(p, k).radices
      r.size == k && r.product == p && r == r.sorted.reverse && r.sum == bruteForceMinSum(p, k)
    }
  }

  checkProp("a perfect k-th power has k equal radices") {
    Prop.forAll(Gen.choose(1, 12), Gen.choose(1, 3)) { (s, k) =>
      Grid(Seq.fill(k)(s).product, k).radices == Vector.fill(k)(s)
    }
  }

  checkProp("coordinates spell the id; withCoord changes only its own dimension") {
    val gen = for {
      p  <- Gen.choose(1, 500)
      k  <- Gen.choose(1, 3)
      id <- Gen.choose(0, p - 1)
      d  <- Gen.choose(0, k - 1)
    } yield (Grid(p, k), k, id, d)
    Prop.forAll(gen) { case (grid, k, id, d) =>
      val c     = (id + 1) % grid.radices(d)
      val moved = grid.withCoord(id, d, c)
      (0 until k).map(e => grid.coord(id, e) * grid.shift(e)).sum == id &&
        grid.coord(moved, d) == c &&
        (0 until k).forall(e => e == d || grid.coord(moved, e) == grid.coord(id, e))
    }
  }
}
