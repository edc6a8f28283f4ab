package repro.exchange

import java.util.concurrent.atomic.AtomicLong
import scala.collection.concurrent.TrieMap

/** In-memory stand-in for S3 with the interface surface the exchange
  * operators need: PUT an object, GET an object or a range of its records,
  * LIST by prefix — each call counted, so tests can check
  * the *measured* request complexity of an exchange against the closed
  * forms of Table 2.
  *
  * Objects are arrays of records (`Long`s): the exchange algorithms move
  * keys, and record payloads are irrelevant to request complexity.
  */
final class MemS3 {
  private val buckets = TrieMap.empty[String, TrieMap[String, Array[Long]]]

  val putCount  = new AtomicLong(0)
  val getCount  = new AtomicLong(0)
  val listCount = new AtomicLong(0)

  private def bucket(name: String): TrieMap[String, Array[Long]] =
    buckets.getOrElseUpdate(name, TrieMap.empty)

  /** PUT an object (overwrites). */
  def put(bucketName: String, key: String, data: Array[Long]): Unit = {
    putCount.incrementAndGet()
    bucket(bucketName).update(key, data)
  }

  /** GET a whole object; None if it does not exist (a poll miss still costs
    * a request, as it would on S3).
    */
  def get(bucketName: String, key: String): Option[Array[Long]] = {
    getCount.incrementAndGet()
    bucket(bucketName).get(key)
  }

  /** Ranged GET: records [from, until) of an object — the wire analogue of
    * an HTTP Range request used by write combining.
    */
  def getRange(bucketName: String, key: String, from: Int, until: Int): Option[Array[Long]] = {
    getCount.incrementAndGet()
    bucket(bucketName).get(key).map(_.slice(from, until))
  }

  /** LIST object keys in a bucket with the given prefix. */
  def list(bucketName: String, prefix: String): Vector[String] = {
    listCount.incrementAndGet()
    bucket(bucketName).keysIterator.filter(_.startsWith(prefix)).toVector.sorted
  }

  /** Number of objects currently stored across all buckets. */
  def objectCount: Long = buckets.valuesIterator.map(_.size.toLong).sum

  /** Distinct bucket names touched so far. */
  def bucketNames: Set[String] = buckets.keySet.toSet

  def resetCounters(): Unit = { putCount.set(0); getCount.set(0); listCount.set(0) }
}
