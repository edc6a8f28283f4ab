package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

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
}
