package repro.core

import repro.{SparkSpec, TestKit}
import repro.data.StreamGen
import repro.queries.Queries

class ReservoirJoinEngineSpec extends SparkSpec {

  private def graphStream(q: JoinQuery, edges: Int, nodes: Int, seed: Long) = {
    val es = StreamGen.graphEdges(edges, nodes, seed)
    if (q.name.startsWith("line")) StreamGen.lineK(q.arity, es, seed).stream
    else StreamGen.starK(q.arity, es, seed).stream
  }

  // --- exact coverage: k ≥ |Q(R)| ⇒ the sample IS the join (DuckDB oracle) --

  for ((qname, q) <- Seq("line2" -> Queries.lineK(2), "line3" -> Queries.lineK(3),
                         "star3" -> Queries.starK(3))) {
    test(s"k >= |Q| sample equals the DuckDB join: $qname") {
      val stream = graphStream(q, edges = 40, nodes = 12, seed = 5)
      val engine = new ReservoirJoinEngine(q, k = 100000, seed = 11)
      IndexHarness.feed(engine, stream)
      OracleCheck.sampleEqualsJoin(spark, q, stream, engine.sample)
    }
  }

  test("k >= |Q| sample equals the DuckDB join: QZ (relational, with payload)") {
    val w = StreamGen.qz(sf = 0.04, seed = 9)
    val tuples = w.preload ++ w.stream
    val engine = new ReservoirJoinEngine(w.query, k = 200000, seed = 3)
    IndexHarness.feed(engine, tuples)
    OracleCheck.sampleEqualsJoin(spark, w.query, tuples, engine.sample)
  }

  test("k >= |Q| sample equals the DuckDB join: QZ with grouping") {
    val w = StreamGen.qz(sf = 0.04, seed = 9)
    val tuples = w.preload ++ w.stream
    val engine = new ReservoirJoinEngine(w.query, k = 200000, seed = 4, grouping = true)
    IndexHarness.feed(engine, tuples)
    OracleCheck.sampleEqualsJoin(spark, w.query, tuples, engine.sample)
  }

  // --- uniformity ---------------------------------------------------------

  test("line-3 sample is uniform over the join results") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 18, nodes = 7, seed = 21)
    val all = OracleCheck.bruteJoin(q, stream)
    val m = all.size
    assert(m >= 20, s"degenerate instance: only $m join rows")
    val k = 5
    val runs = 1200
    val counts = IndexHarness.inclusionCounts(
      s => new ReservoirJoinEngine(q, k, s), stream, runs)
    assert(counts.keySet.subsetOf(all), "sampled a non-result")
    TestKit.assertUniform(counts, m, k, runs, "line3")
  }

  test("star-3 sample is uniform over the join results") {
    val q = Queries.starK(3)
    val stream = graphStream(q, edges = 15, nodes = 7, seed = 33)
    val all = OracleCheck.bruteJoin(q, stream)
    val m = all.size
    assert(m >= 20, s"degenerate instance: only $m join rows")
    val k = 4
    val runs = 1200
    val counts = IndexHarness.inclusionCounts(
      s => new ReservoirJoinEngine(q, k, s), stream, runs)
    assert(counts.keySet.subsetOf(all))
    TestKit.assertUniform(counts, m, k, runs, "star3")
  }

  test("QY sample with grouping is uniform over the join results") {
    val q = Queries.qy
    TestKit.forCases(1) { rng =>
      val payload = Set("sspay", "c1pay", "d1pay", "d2pay", "c2pay")
      val stream = IndexHarness.randomStream(q, steps = 60, domain = 3, rng, payload)
      val all = OracleCheck.bruteJoin(q, stream)
      val m = all.size
      assert(m >= 15 && m <= 4000, s"inconvenient instance size $m")
      val k = 5
      val runs = 1000
      val counts = IndexHarness.inclusionCounts(
        s => new ReservoirJoinEngine(q, k, s, grouping = true), stream, runs)
      assert(counts.keySet.subsetOf(all))
      TestKit.assertUniform(counts, m, k, runs, "qy-grouped")
    }
  }

  // --- streaming-prefix properties ---------------------------------------

  test("at every prefix the sample is a subset of the current join, with correct size") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 25, nodes = 8, seed = 44)
    val engine = new ReservoirJoinEngine(q, k = 10, seed = 5)
    val brute = new DeltaEnumerator(q)
    var joinSoFar = Set.empty[Proj.JoinRow]
    for ((rel, t) <- stream) {
      engine.insert(rel, t)
      joinSoFar ++= brute.insertAndDelta(rel, t.clone())
      val s = engine.sample
      assert(s.toSet.subsetOf(joinSoFar), s"sample outside join at size ${joinSoFar.size}")
      assert(s.size === math.min(10, joinSoFar.size))
      assert(s.toSet.size === s.size, "duplicates in sample")
    }
  }

  test("insertion order does not break correctness (relation-major order)") {
    val q = Queries.lineK(3)
    val es = StreamGen.graphEdges(30, 10, 7)
    // all g3 first, then g2, then g1 — maximally adversarial for the index
    val stream = (for (e <- es) yield ("g3", Array(e._1, e._2))) ++
      (for (e <- es) yield ("g2", Array(e._1, e._2))) ++
      (for (e <- es) yield ("g1", Array(e._1, e._2)))
    val engine = new ReservoirJoinEngine(q, k = 100000, seed = 2)
    IndexHarness.feed(engine, stream)
    assert(engine.sample.toSet === OracleCheck.bruteJoin(q, stream))
  }

  test("trackFullJoin = false (the paper's index) still samples correctly") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 35, nodes = 11, seed = 51)
    val a = new ReservoirJoinEngine(q, k = 100000, seed = 7, trackFullJoin = false)
    IndexHarness.feed(a, stream)
    assert(a.sample.toSet === OracleCheck.bruteJoin(q, stream))
    intercept[IllegalArgumentException](a.trees(0).fullCount)
  }

  test("trackFullJoin = false does strictly less propagation work") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 60, nodes = 14, seed = 52)
    val a = new ReservoirJoinEngine(q, 5, 7, trackFullJoin = true)
    val b = new ReservoirJoinEngine(q, 5, 7, trackFullJoin = false)
    IndexHarness.feed(a, stream)
    IndexHarness.feed(b, stream)
    assert(b.propagations <= a.propagations)
  }

  test("engine rejects cyclic queries") {
    val tri = JoinQuery("tri", Vector(
      RelSchema("r1", Vector("x", "y")), RelSchema("r2", Vector("y", "z")),
      RelSchema("r3", Vector("z", "x"))))
    intercept[IllegalArgumentException](new ReservoirJoinEngine(tri, 1, 1))
  }

  test("engine rejects unknown relations and wrong arity") {
    val e = new ReservoirJoinEngine(Queries.lineK(2), 1, 1)
    intercept[IllegalArgumentException](e.insert("nope", Array(1L, 2L)))
    intercept[IllegalArgumentException](e.insert("g1", Array(1L)))
  }

  test("single-relation query degenerates to plain reservoir sampling") {
    val q = JoinQuery("one", Vector(RelSchema("r", Vector("a", "b"))))
    val e = new ReservoirJoinEngine(q, k = 5, seed = 3)
    for (i <- 1 to 100) e.insert("r", Array(i.toLong, i.toLong))
    assert(e.sample.size === 5)
    assert(e.sample.forall(r => r("a") == r("b")))
  }

  test("propagation counter is monotone and positive on join-heavy streams") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 60, nodes = 13, seed = 15)
    val e = new ReservoirJoinEngine(q, 10, 1)
    var last = 0L
    for ((rel, t) <- stream) {
      e.insert(rel, t)
      assert(e.propagations >= last)
      last = e.propagations
    }
    assert(e.propagations > 0)
  }

  test("a star insert whose |ΔJ| passes 2^61 throws instead of capping the batch") {
    // star-10 on one centre value: |ΔJ| of an insert is the product of the
    // other nine arms' sizes, 64^9 = 2^54 at most while every arm holds ≤ 64
    // tuples, 128^9 = 2^63 for the last insert below.
    val arms = 10
    val e = new ReservoirJoinEngine(Queries.starK(arms), k = 5, seed = 3, trackFullJoin = false)
    def fill(ds: Range): Unit =
      for (d <- ds; i <- 1 to arms) e.insert(s"g$i", Array(1L, d.toLong))
    fill(1 to 64)
    assert(e.sample.size === 5)
    intercept[ArithmeticException](fill(65 to 128))
  }

  test("approxBytes grows with the input") {
    val q = Queries.lineK(3)
    val stream = graphStream(q, edges = 60, nodes = 13, seed = 16)
    val e = new ReservoirJoinEngine(q, 10, 1)
    val (first, second) = stream.splitAt(stream.size / 2)
    IndexHarness.feed(e, first)
    val b1 = e.approxBytes
    IndexHarness.feed(e, second)
    assert(e.approxBytes > b1)
  }
}
