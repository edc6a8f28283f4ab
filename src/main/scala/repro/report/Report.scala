package repro.report

/** Tiny plain-text table renderer shared by the bench suites and the
  * spark-submit jobs, so every reproduced artifact prints in one consistent
  * format that can be diffed against EXPERIMENTS.md.
  */
object Report {

  /** Render a table with a header row. Columns are right-padded. */
  def table(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r.lift(i).fold(0)(_.length)).max)
    def line(r: Seq[String]): String =
      r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  // Locale.ROOT: a '.' decimal point whatever the JVM's default locale.
  def f1(x: Double): String  = "%.1f".formatLocal(java.util.Locale.ROOT, x)
  def f2(x: Double): String  = "%.2f".formatLocal(java.util.Locale.ROOT, x)
  def f3(x: Double): String  = "%.3f".formatLocal(java.util.Locale.ROOT, x)
  def f4(x: Double): String  = "%.4f".formatLocal(java.util.Locale.ROOT, x)
  def usd(x: Double): String = (if (x >= 0.01) "$%.3f" else "$%.5f").formatLocal(java.util.Locale.ROOT, x)
  def pct(x: Double): String = "%.1f%%".formatLocal(java.util.Locale.ROOT, x * 100)
}
