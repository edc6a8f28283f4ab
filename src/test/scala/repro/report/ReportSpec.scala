package repro.report

import java.util.Locale

import org.scalatest.funsuite.AnyFunSuite

class ReportSpec extends AnyFunSuite {

  test("numbers format with a '.' decimal point under a comma-decimal default locale") {
    val saved = Locale.getDefault
    Locale.setDefault(Locale.GERMANY)
    try {
      assert(Report.f1(24.6) == "24.6")
      assert(Report.f2(1.25) == "1.25")
      assert(Report.usd(0.059) == "$0.059")
      assert(Report.usd(0.00123) == "$0.00123")
      assert(Report.pct(0.25) == "25.0%")
    } finally Locale.setDefault(saved)
  }
}
