package repro.exchange

import java.util.Arrays
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

/** In-memory stand-in for S3 with the interface surface the exchange
  * operators need: PUT an object, GET an object or a range of its records,
  * LIST by prefix — each call counted, so tests can check
  * the *measured* request complexity of an exchange against the closed
  * forms of Table 2.
  *
  * Objects are arrays of records (`Long`s): the exchange algorithms move
  * keys, and record payloads are irrelevant to request complexity.
  * Buckets and the keys in each are concurrent hash maps. A bucket comes
  * into being with its first PUT; reads of a bucket never written find
  * nothing and create nothing.
  */
final class MemS3 {
  private val buckets = new ConcurrentHashMap[String, ConcurrentHashMap[String, Array[Long]]]

  val putCount  = new AtomicLong(0)
  val getCount  = new AtomicLong(0)
  val listCount = new AtomicLong(0)

  /** The object, or null if it or its bucket does not exist. */
  private def lookup(bucketName: String, key: String): Array[Long] = {
    val bucket = buckets.get(bucketName)
    if (bucket == null) null else bucket.get(key)
  }

  /** PUT an object (overwrites). */
  def put(bucketName: String, key: String, data: Array[Long]): Unit = {
    putCount.incrementAndGet()
    var bucket = buckets.get(bucketName)
    if (bucket == null) bucket = buckets.computeIfAbsent(bucketName, _ => new ConcurrentHashMap)
    bucket.put(key, data)
  }

  /** GET a whole object; None if it does not exist (a poll miss still costs
    * a request, as it would on S3).
    */
  def get(bucketName: String, key: String): Option[Array[Long]] = {
    getCount.incrementAndGet()
    Option(lookup(bucketName, key))
  }

  /** Ranged GET: records [from, until) of an object — the wire analogue of
    * an HTTP Range request used by write combining. Both bounds are clamped
    * to the object, and the range is empty when `from >= until`.
    */
  def getRange(bucketName: String, key: String, from: Int, until: Int): Option[Array[Long]] = {
    getCount.incrementAndGet()
    Option(lookup(bucketName, key)).map { data =>
      val lo = math.min(math.max(from, 0), data.length)
      Arrays.copyOfRange(data, lo, math.max(lo, math.min(until, data.length)))
    }
  }

  /** LIST object keys in a bucket with the given prefix. */
  def list(bucketName: String, prefix: String): Vector[String] = {
    listCount.incrementAndGet()
    val bucket = buckets.get(bucketName)
    if (bucket == null) Vector.empty
    else bucket.keySet.asScala.iterator.filter(_.startsWith(prefix)).toVector.sorted
  }

  /** Number of objects currently stored across all buckets. */
  def objectCount: Long = buckets.values.asScala.iterator.map(_.size.toLong).sum

  /** Distinct bucket names written so far. */
  def bucketNames: Set[String] = buckets.keySet.asScala.toSet

  def resetCounters(): Unit = { putCount.set(0); getCount.set(0); listCount.set(0) }
}
