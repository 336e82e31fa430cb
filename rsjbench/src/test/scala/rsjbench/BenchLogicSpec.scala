package rsjbench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Experiments
import repro.core.{JoinQuery, Rng, SamplingEngine}
import repro.data.StreamGen
import repro.queries.Queries

class BenchLogicSpec extends AnyFunSuite {

  /** Nested-loop natural join, relation by relation (bag semantics). */
  private def bruteJoin(q: JoinQuery, tuples: Seq[(String, Array[Long])]): Seq[Map[String, Long]] =
    q.relations.foldLeft(Seq(Map.empty[String, Long])) { (acc, rel) =>
      val rows = tuples.collect { case (r, t) if r == rel.name => rel.attrs.zip(t).toMap }
      for (a <- acc; t <- rows if t.forall { case (k, v) => a.get(k).forall(_ == v) }) yield a ++ t
    }

  private def lineTree(k: Int) = (0 until k - 1).map(i => (i, i + 1))

  test("walk count equals Experiments.line3JoinSize and a brute-force join on small graphs") {
    for (seed <- 1L to 6L) {
      val es = StreamGen.graphEdges(60, 15, seed)
      val stream = StreamGen.lineK(3, es, seed).stream
      assert(JoinSize.walks(es, 3) === Experiments.line3JoinSize(stream))
      for (k <- 2 to 4) {
        val w = StreamGen.lineK(k, es, seed)
        val brute = bruteJoin(w.query, w.stream).size.toLong
        assert(JoinSize.walks(es, k) === brute, s"line-$k, seed $seed")
        assert(JoinSize.tree(w.query, w.stream, lineTree(k)) === brute, s"line-$k tree, seed $seed")
      }
    }
  }

  test("tree count of QZ equals a brute-force join") {
    val w = StreamGen.qz(0.05, 3)
    val all = w.preload ++ w.stream
    val qzTree = Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6))
    assert(JoinSize.tree(w.query, all, qzTree) === bruteJoin(w.query, all).size.toLong)
  }

  test("join check accepts join results and rejects altered rows") {
    val es = StreamGen.graphEdges(40, 12, 5)
    val w = StreamGen.lineK(3, es, 5)
    val jc = new JoinCheck(w.query, w.stream)
    val rows = bruteJoin(w.query, w.stream)
    assert(rows.nonEmpty && rows.forall(jc.isResult))
    val r = rows.head
    assert(!jc.isResult(r.updated("v1", 999L)))
    assert(!jc.isResult(r - "v4"))
    assert(jc.setSemantics)
  }

  test("nearest-rank percentiles") {
    val xs = (1L to 100L).toArray
    assert(Stats.percentile(xs, 0.50) === 50L)
    assert(Stats.percentile(xs, 0.75) === 75L)
    assert(Stats.percentile(xs, 0.90) === 90L)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) === 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) === 2.5)
  }

  test("a percentile needs ten samples beyond it: p75 of fewer than 40 triggers is refused") {
    assert(Stats.percentile((1L to 40L).toArray, 0.75) === 30L)
    intercept[IllegalArgumentException](Stats.percentile((1L to 39L).toArray, 0.75))
    assert(Stats.percentile((1L to 1000L).toArray, 0.99) === 990L)
    intercept[IllegalArgumentException](Stats.percentile((1L to 999L).toArray, 0.99))
    intercept[IllegalArgumentException](Stats.percentile((1L to 19L).toArray, 0.50))
  }

  test("self times are never negative and add up to the root spans") {
    val rng = new Rng(11)
    for (_ <- 1 to 200) {
      val tr = new Tracer
      var now = 0L
      var rootSum = 0L
      // A random tree of strictly nested spans on a synthetic clock.
      def span(depth: Int): Unit = {
        tr.beginAt(rng.nextInt(Layer.Count), now)
        now += rng.nextInt(5)
        if (depth < 4) for (_ <- 0 until rng.nextInt(4)) { span(depth + 1); now += rng.nextInt(3) }
        tr.endAt(now)
      }
      for (_ <- 0 until 1 + rng.nextInt(3)) {
        val t0 = now
        span(0)
        rootSum += now - t0
        now += rng.nextInt(7)
      }
      assert(tr.self.forall(_ >= 0), tr.self.mkString(","))
      assert(tr.selfSum === rootSum)
    }
  }

  test("unwind closes the spans an exception left open") {
    val tr = new Tracer
    tr.beginAt(Layer.Reservoir, 0)
    tr.beginAt(Layer.Retrieve, 1)
    tr.unwind()
    assert(tr.self(Layer.Retrieve) >= 0 && tr.self(Layer.Reservoir) >= 0)
    tr.beginAt(Layer.Store, 0)
    tr.endAt(5)
    assert(tr.self(Layer.Store) === 5, "a span after unwind nests at the top again")
  }

  /** A traced engine must end with the sample `insert` gives. */
  private def replaysInsert(mk: () => SamplingEngine, tuples: Seq[(String, Array[Long])]): Unit = {
    val plain = mk()
    tuples.foreach { case (r, t) => plain.insert(r, t) }
    val traced = mk()
    val tr = new Tracer
    val counts = new TraceCounts
    val feed = new Traced(traced, tr, counts)
    tuples.foreach { case (r, t) => feed.insert(r, t) }
    assert(traced.sample === plain.sample)
    assert(traced.propagations === plain.propagations)
    assert(tr.self.forall(_ >= 0))
    // Behind FK combination the store sees the combined tuples translate emits.
    val stored = if (counts.fkOutTuples > 0) counts.fkOutTuples else tuples.size.toLong
    assert(counts.storeCalls === stored)
  }

  test("the traced path draws the same sample as insert, for every engine") {
    val es = StreamGen.graphEdges(300, 60, 7)
    val line = StreamGen.lineK(3, es, 7)
    replaysInsert(() => new repro.core.ReservoirJoinEngine(line.query, 50, 7, trackFullJoin = false),
      line.stream)
    replaysInsert(() => new repro.core.baseline.SJoinEngine(line.query, 50, 7, trackFullJoin = false),
      line.stream)
    val qz = StreamGen.qz(0.5, 7)
    replaysInsert(() => repro.core.fk.FkEngine.rs(qz.query, Queries.qzFks, 80, 7,
      grouping = true, trackFullJoin = false), qz.preload ++ qz.stream)
  }

  test("the JSON line carries exactly the metrics of its mode, and a missing one fails") {
    val out = new Outcome(trace = false)
    Metrics.EndToEnd.foreach { case (m, _) => out.put(m, 1.5) }
    out.inserts = 10
    assert(out.json.startsWith("""{"correct": true, "attempted": 10, "failed": 0, "metrics": {"tuples_per_s": """))
    val partial = new Outcome(trace = true)
    partial.inserts = 10
    partial.put("retrieve.s", 0.25)
    assert(partial.json.startsWith("""{"correct": false"""))
    intercept[IllegalArgumentException](partial.put("tuples_per_s", 1.0))
  }
}
