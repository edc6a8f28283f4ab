package repro.report

import java.nio.charset.StandardCharsets.UTF_8

import org.scalatest.funsuite.AnyFunSuite

/** The behavioural contract: every model-based artifact of `Tables.all`
  * must render byte for byte as in `contract/tables.txt`, the output of
  * `AllTablesJob` (README § Running has the command that regenerates it).
  * A change that moves a number regenerates the snapshot and lists every
  * moved cell in CHANGES.md.
  */
class ContractSpec extends AnyFunSuite {

  /** The snapshot's artifacts: each `### <id>` line, then the table, then
    * one blank line.
    */
  private val snapshot: Seq[(String, String)] = {
    val in   = getClass.getResourceAsStream("/contract/tables.txt")
    val text = try new String(in.readAllBytes(), UTF_8) finally in.close()
    text.split("(?m)^### ").toSeq.tail.map { block =>
      val (id, rest) = block.splitAt(block.indexOf('\n'))
      id -> rest.drop(1).stripSuffix("\n\n")
    }
  }

  private lazy val rendered: Seq[(String, String)] = Tables.all

  /** Line-by-line diff: `-` snapshot line, `+` rendered line. */
  private def diff(expected: String, actual: String): String = {
    val (e, a) = (expected.split("\n", -1), actual.split("\n", -1))
    (0 until math.max(e.length, a.length)).flatMap { i =>
      if (e.lift(i) == a.lift(i)) Nil
      else e.lift(i).map("- " + _).toList ++ a.lift(i).map("+ " + _)
    }.mkString("\n")
  }

  test("the snapshot holds every artifact of Tables.all, in order") {
    assert(snapshot.map(_._1) == rendered.map(_._1))
  }

  for ((id, expected) <- snapshot) test(s"$id renders byte for byte as in the snapshot") {
    val actual = rendered.toMap.getOrElse(id, fail(s"Tables.all has no artifact $id"))
    if (actual != expected)
      fail(s"$id differs from contract/tables.txt:\n${diff(expected, actual)}")
  }
}
