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

  test("feedTimed completes within budget and reports counts") {
    val es = StreamGen.graphEdges(200, 60, 3)
    val w = StreamGen.lineK(3, es, 3)
    val e = new ReservoirJoinEngine(w.query, 10, 1)
    val r = BenchUtil.feedTimed(e.insert, w.stream, budgetSec = 60)
    assert(!r.dnf)
    assert(r.processed === w.stream.size)
    assert(r.total === w.stream.size)
    assert(r.pretty.endsWith("s"))
  }

  test("feedTimed reports DNF when the budget is blown") {
    val es = StreamGen.graphEdges(3000, 800, 3)
    val w = StreamGen.lineK(3, es, 3)
    val e = new ReservoirJoinEngine(w.query, 10, 1)
    val r = BenchUtil.feedTimed(e.insert, w.stream, budgetSec = 0.0)
    assert(r.dnf)
    assert(r.processed < r.total)
    assert(r.pretty.startsWith("DNF"))
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
