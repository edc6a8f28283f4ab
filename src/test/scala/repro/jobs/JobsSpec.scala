package repro.jobs

import java.io.ByteArrayOutputStream
import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

/** The artifact entry point on a small fake artifact list: selection by id
  * and the `### <id>` UTF-8 writer, without rendering `Tables.all`. Each fake
  * render records its id in `rendered` when it runs.
  */
class JobsSpec extends AnyFunSuite {

  private val rendered = ArrayBuffer.empty[String]
  private val fake: Seq[(String, () => String)] =
    Seq("table1" -> "t1", "fig5" -> "f5 \u2014 dash", "fig9" -> "f9").map { case (id, table) =>
      id -> (() => { rendered += id; table })
    }

  test("select returns the named artifacts in list order, or all of them with no id") {
    assert(AllTablesJob.select(fake, Nil) == fake)
    assert(AllTablesJob.select(fake, Seq("fig9", "table1")) == Seq(fake(0), fake(2)))
    assert(AllTablesJob.select(fake, Seq("fig5")) == Seq(fake(1)))
  }

  test("an unknown id fails and names the valid ids") {
    rendered.clear()
    val e = intercept[IllegalArgumentException](AllTablesJob.select(fake, Seq("fig5", "fig99")))
    assert(e.getMessage.contains("fig99"))
    assert(e.getMessage.contains("table1, fig5, fig9"))
    assert(rendered.isEmpty, "nothing renders before the ids are checked")
  }

  test("printing one named artifact renders that artifact alone") {
    rendered.clear()
    val out = new ByteArrayOutputStream
    JobSupport.print(AllTablesJob.select(fake, Seq("fig5")), out)
    assert(rendered == Seq("fig5"))
    assert(new String(out.toByteArray, UTF_8) == "### fig5\nf5 \u2014 dash\n\n")
  }

  test("the writer emits ### <id> blocks in UTF-8 whatever the default charset") {
    val out = new ByteArrayOutputStream
    JobSupport.print(fake.take(2), out)
    assert(new String(out.toByteArray, UTF_8) == "### table1\nt1\n\n### fig5\nf5 \u2014 dash\n\n")
    assert(out.toByteArray.containsSlice(Array(0xE2, 0x80, 0x94).map(_.toByte)))
  }
}
