package repro

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DecimalType

import repro.core.Queries

class OracleSpec extends SparkSpec {

  private lazy val lineitem = SynthData.lineitem(spark, sf = 0.001).cache()

  test("a Spark answer over a relation with rows removed is rejected") {
    val missing = lineitem.filter(col("l_linenumber") =!= 1)
    assert(missing.count() < lineitem.count())
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(Queries.q6(missing), Queries.q6DuckSql, "lineitem" -> lineitem)
    }
  }

  test("a null loads as SQL NULL and a non-ASCII string loads unchanged") {
    import spark.implicits._
    val strings = Seq(Some("naïve – 東京 ✓"), None, Some("plain")).toDF("s")
    val expected = strings.select(col("s"), col("s").isNull as "is_null",
      octet_length(col("s")) as "bytes")
    Oracle.assertEquivalent(expected, "SELECT s, s IS NULL AS is_null, strlen(s) AS bytes FROM t",
      "t" -> strings)
  }

  test("count(*) on a loaded table equals the DataFrame's count") {
    val n = lineitem.count()
    Oracle.assertEquivalent(spark.range(1).select(lit(n) as "n"),
      "SELECT count(*) AS n FROM lineitem", "lineitem" -> lineitem)
  }

  test("a DECIMAL sum one millionth off at 1e10 is rejected, though both round to one double") {
    val (sparkSum, duckSum) = ("12345678901.000001", "12345678901.000002")
    assert(sparkSum.toDouble == duckSum.toDouble)
    val df = spark.range(1).select(lit(new java.math.BigDecimal(sparkSum)).cast(DecimalType(38, 6)) as "v")
    def duck(v: String) = s"SELECT CAST('$v' AS DECIMAL(38,6)) AS v"
    Oracle.assertEquivalent(df, duck(sparkSum))
    intercept[IllegalArgumentException](Oracle.assertEquivalent(df, duck(duckSum)))
  }
}
