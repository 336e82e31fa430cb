package repro.bench

import repro.SparkSpec
import repro.core.ReservoirJoinEngine
import repro.data.StreamGen
import repro.queries.Queries

class BenchUtilSpec extends SparkSpec {

  test("renderTable aligns columns") {
    val t = BenchUtil.renderTable(Seq("a", "bbb"), Seq(Seq("xx", "y"), Seq("1", "22222")))
    val lines = t.split("\n")
    assert(lines.length === 4)
    assert(lines.map(_.length).distinct.size === 1, "ragged table")
  }

  test("percentile picks from a sorted array") {
    val a = Array(1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L, 10L)
    assert(BenchUtil.percentile(a, 0.0) === 1L)
    assert(BenchUtil.percentile(a, 0.5) === 6L)
    assert(BenchUtil.percentile(a, 0.99) === 10L)
    assert(BenchUtil.percentile(Array.empty[Long], 0.5) === 0L)
  }

  test("feed completes within budget and reports counts") {
    val es = StreamGen.graphEdges(200, 60, 3)
    val w = StreamGen.lineK(3, es, 3)
    val e = new ReservoirJoinEngine(w.query, 10, 1)
    val r = BenchUtil.feed(e.insert, w.stream, budgetSec = 60)
    assert(!r.dnf)
    assert(r.processed === w.stream.size)
    assert(r.total === w.stream.size)
    assert(r.atMarks.isEmpty)
    assert(r.pretty.endsWith("s"))
  }

  test("feed reports DNF when the budget is blown") {
    val es = StreamGen.graphEdges(3000, 800, 3)
    val w = StreamGen.lineK(3, es, 3)
    val e = new ReservoirJoinEngine(w.query, 10, 1)
    val tenths = (1 to 10).map(w.stream.size * _ / 10)
    val r = BenchUtil.feed(e.insert, w.stream, budgetSec = 0.0, tenths)
    assert(r.dnf)
    assert(r.processed < r.total)
    assert(r.atMarks.length < tenths.size)
    assert(r.pretty.startsWith("DNF"))
  }

  test("feed records the step time at each mark and runs the callback outside it") {
    val tuples = Vector.fill(5000)(("r", Array(1L)))
    var steps = 0
    val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
    val marks = Vector(1, 512, 512, 2000, 5000)
    // Each callback sleeps 30 ms: 150 ms in all, against a 100 ms budget
    // that only the steps count against.
    val r = BenchUtil.feed((_, _) => steps += 1, tuples, budgetSec = 0.1, marks,
      _ => { seen += steps; Thread.sleep(30) })
    assert(!r.dnf)
    assert(seen.toSeq === marks)
    assert(r.atMarks.length === marks.size)
    assert(r.atMarks.toSeq === r.atMarks.toSeq.sorted)
    assert(r.atMarks(1) === r.atMarks(2))
    assert(math.abs(r.seconds * 1e9 - r.atMarks.last) < 1.0)
    assert(r.seconds < 0.1, s"callback time leaked into the step time: ${r.seconds} s")
  }

  test("line3JoinSize matches the exact SJoin count") {
    val es = StreamGen.graphEdges(300, 60, 5)
    val w = StreamGen.lineK(3, es, 5)
    val sj = new repro.core.baseline.SJoinEngine(w.query, 1, 1)
    w.stream.foreach { case (r, t) => sj.updateOnly(r, t) }
    assert(Experiments.line3JoinSize(w.stream) === sj.fullCount)
  }

  test("line3JoinSize on prefixes is monotone") {
    val es = StreamGen.graphEdges(200, 50, 7)
    val w = StreamGen.lineK(3, es, 7)
    val sizes = (1 to 10).map(i => Experiments.line3JoinSize(w.stream.take(w.stream.size * i / 10)))
    assert(sizes === sizes.sorted)
  }
}
