package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DecimalType

import repro.coldstore.ColdStore
import repro.core.Queries

class SynthDataSpec extends SparkSpec {

  test("lineitem and uniformKeys give the same rows whatever the range's partition count") {
    def rows(gen: SparkSession => DataFrame, slices: Int) = {
      val s = spark.newSession()
      s.conf.set("spark.sql.leafNodeDefaultParallelism", slices.toLong)
      val df = gen(s)
      assert(df.rdd.getNumPartitions == slices)
      df.collect().toSeq
    }
    for (gen <- Seq[SparkSession => DataFrame](SynthData.lineitem(_, sf = 0.001),
                                               SynthData.uniformKeys(_, 5000, 100))) {
      val (one, seven) = (rows(gen, 1), rows(gen, 7))
      assert(one.nonEmpty && one.size == seven.size)
      assert(one.zip(seven).count { case (a, b) => a != b } == 0, "rows differ")
    }
  }

  test("quantity, price, discount and tax are DECIMAL(15,2): quantities in 1..50, prices the rounded doubles") {
    val decimals = Seq("l_quantity", "l_extendedprice", "l_discount", "l_tax")
    val lineitem = SynthData.lineitem(spark, sf = 0.005)
    val (stored, _) = ColdStore.prunedScan(spark, ColdStoreFixture.dir, Queries.Q6DateLo, Queries.Q6DateHi)
    for (schema <- Seq(lineitem.schema, stored.schema); c <- decimals)
      assert(schema(c).dataType == DecimalType(15, 2), c)
    val rows = lineitem.select(decimals.map(col): _*).collect()
    val quantities = rows.map(_.getDecimal(0))
    assert(quantities.forall(q => q.stripTrailingZeros.scale <= 0), "integral")
    assert(quantities.map(_.intValueExact).toSet == (1 to 50).toSet)
    // Stream j of row `id`; price, discount and tax must equal these doubles rounded to cents.
    def u(j: Long) = shiftrightunsigned(xxhash64(col("id"), lit(j)), 11) * math.pow(2, -53)
    val doubles = spark.range(rows.length)
      .select(round(u(4) * 90000 + 900, 2), round(u(5) * 0.10, 2), round(u(6) * 0.08, 2)).collect()
    val differ = rows.zip(doubles).count { case (r, d) =>
      (1 to 3).exists(i => r.getDecimal(i).doubleValue != d.getDouble(i - 1))
    }
    assert(differ == 0, s"of ${rows.length} rows")
  }
}
