package repro

import java.math.RoundingMode
import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.duckdb.DuckDBConnection

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * Doubles compare at six decimals. Decimals compare exactly at six places
  * (rounded HALF_UP), not through a double: at 1e10 a double's ulp is about
  * 2e-6, so two sums 1e-6 apart would print the same.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => "∅"
          case d: Double                => f"$d%.6f"
          case f: Float                 => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => bd.setScale(6, RoundingMode.HALF_UP).toPlainString
          case x                        => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once and bulk-load through the appender: JDBC batch
        // inserts run row at a time in DuckDB. Close it to flush the rows.
        val app = conn.unwrap(classOf[DuckDBConnection])
          .createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        try df.collect().foreach { r =>
          app.beginRow()
          cols.indices.foreach(i => app.append(Option(r.get(i)).map(_.toString).orNull: String))
          app.endRow()
        } finally app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
