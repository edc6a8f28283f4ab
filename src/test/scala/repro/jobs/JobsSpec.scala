package repro.jobs

import java.io.ByteArrayOutputStream
import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable.ArrayBuffer

import repro.{ColdStoreFixture, SparkSpec}

/** The artifact entry points: selection by id and the `### <id>` UTF-8
  * writer on a small fake artifact list, without rendering `Tables.all`
  * (each fake render records its id in `rendered` when it runs), and
  * `ColdStoreJob`'s artifacts on the shared cold store.
  */
class JobsSpec extends SparkSpec {

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

  test("ColdStoreJob prints Fig 10 with measured fractions and Fig 11's scan tasks, one per file") {
    val out = new ByteArrayOutputStream
    JobSupport.print(ColdStoreJob.artifacts(spark, ColdStoreFixture.dir), out)
    val blocks = new String(out.toByteArray, UTF_8).split("\n\n").toSeq.map(_.split("\n").toSeq)
    assert(blocks.map(_.head) == Seq("### fig10-measured", "### fig11-tasks"))
    val Seq(fig10, fig11) = blocks
    assert(fig10(1).startsWith("== Fig 10:"))
    assert(fig10.size == 4 + 15, "the id, a title, a header, a rule and the 5 x 3 sweep")
    val perFile = ColdStoreFixture.NFiles.toString
    val scanTasks = fig11.map(_.split(" +").toSeq).collect {
      case Seq(q @ ("Q1" | "Q6"), tasks, _*) => q -> tasks
    }
    assert(scanTasks == Seq("Q1" -> perFile, "Q6" -> perFile))
  }
}
