package repro

import org.apache.spark.sql.SparkSession

/** The tests' and the jobs' local SparkSession: master from `SPARK_MASTER` (default
  * `local[*]`), 64 shuffle partitions, no broadcast joins (so joins always shuffle).
  */
object LocalSpark {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
