package repro.exchange

/** The worker grid of the k-level exchange (Section 4.4): worker ids as
  * mixed-radix numbers, one digit per level. Round r fixes dimension r - 1,
  * and dimension 0 is the most significant. A radix of 1 is a round in which
  * each worker sends only to itself.
  */
final class Grid private (val radices: Vector[Int]) extends Serializable {
  private val sizes  = radices.toArray
  private val shifts = radices.indices.map(d => radices.drop(d + 1).product).toArray

  /** Stride of dimension d in a worker id: the product of the radices after d. */
  def shift(d: Int): Int = shifts(d)
  def coord(id: Int, d: Int): Int = id / shifts(d) % sizes(d)
  def withCoord(id: Int, d: Int, c: Int): Int = id + (c - coord(id, d)) * shifts(d)
}

object Grid {

  /** The `levels` radices, largest first, whose product is `p` and whose sum
    * is smallest (the exchange reads P times that sum), e.g. 64 -> (8, 8),
    * 250 -> (25, 10) and 13 -> (13, 1) at two levels.
    */
  def apply(p: Int, levels: Int): Grid = {
    require(p >= 1 && levels >= 1, s"need p >= 1 and levels >= 1, got p=$p, levels=$levels")
    val small    = Iterator.from(1).takeWhile(d => d.toLong * d <= p).filter(p % _ == 0).toVector
    val divisors = (small ++ small.map(p / _)).distinct.sortBy(-_)
    def splits(n: Int, k: Int, max: Int): Iterator[List[Int]] = // n as k divisors <= max, largest first
      if (k == 1) Iterator.single(List(n)).filter(_ => n <= max)
      else divisors.iterator.filter(r => r <= max && n % r == 0)
        .flatMap(r => splits(n / r, k - 1, r).map(r :: _))
    new Grid(splits(p, levels, p).minBy(_.sum).toVector)
  }
}
