package repro.core.baseline

import repro.{SparkSpec, TestKit}
import repro.core._
import repro.data.StreamGen
import repro.queries.Queries

class SJoinEngineSpec extends SparkSpec {

  for ((name, q) <- Seq("line2" -> Queries.lineK(2), "line3" -> Queries.lineK(3),
                        "line4" -> Queries.lineK(4), "star3" -> Queries.starK(3),
                        "qz" -> Queries.qz)) {
    test(s"delta batches are exact and dummy-free: $name") {
      TestKit.forCases(3, seed0 = name.hashCode) { rng =>
        val stream = IndexHarness.randomStream(q, steps = 100, domain = 4, rng)
        // The harness checks |ΔJ| = |ΔQ|, no duplicates and the same rows as
        // brute force for every batch it enumerates; here that is all of them.
        val r = IndexHarness.compare(new SJoinEngine(q, 1, 7), stream)
        assert(r.totalJoin >= 0, "a batch was too large to enumerate")
      }
    }
  }

  test("fullCount tracks the exact |Q(R)| after every insert (line-3)") {
    TestKit.forCases(3) { rng =>
      val q = Queries.lineK(3)
      val stream = IndexHarness.randomStream(q, steps = 120, domain = 4, rng)
      val engine = new SJoinEngine(q, 1, 7)
      val brute = new DeltaEnumerator(q)
      var total = 0L
      for ((rel, t) <- stream) {
        engine.updateOnly(rel, t)
        total += brute.insertAndDelta(rel, t.clone()).size
        assert(engine.fullCount === total)
      }
    }
  }

  test("k >= |Q| sample equals the DuckDB join: line-3") {
    val q = Queries.lineK(3)
    val es = StreamGen.graphEdges(40, 12, 5)
    val stream = StreamGen.lineK(3, es, 5).stream
    val engine = new SJoinEngine(q, k = 100000, seed = 11)
    IndexHarness.feed(engine, stream)
    OracleCheck.sampleEqualsJoin(spark, q, stream, engine.sample)
  }

  test("SJoin sample is uniform over the join results (line-3)") {
    val q = Queries.lineK(3)
    val es = StreamGen.graphEdges(18, 7, 21)
    val stream = StreamGen.lineK(3, es, 21).stream
    val all = OracleCheck.bruteJoin(q, stream)
    val m = all.size
    assert(m >= 20, s"degenerate instance: $m rows")
    val k = 5
    val runs = 1200
    val counts = IndexHarness.inclusionCounts(s => new SJoinEngine(q, k, s), stream, runs)
    assert(counts.keySet.subsetOf(all))
    TestKit.assertUniform(counts, m, k, runs, "sjoin-line3")
  }

  test("RSJoin and SJoin agree on full coverage over the same stream") {
    TestKit.forCases(3) { rng =>
      val q = Queries.starK(3)
      val stream = IndexHarness.randomStream(q, steps = 90, domain = 4, rng)
      val a = new ReservoirJoinEngine(q, 100000, 1)
      val b = new SJoinEngine(q, 100000, 2)
      IndexHarness.feed(a, stream)
      IndexHarness.feed(b, stream)
      assert(a.sample.toSet === b.sample.toSet)
    }
  }

  test("SJoin propagates eagerly — strictly more loop executions than RSJoin on skewed input") {
    // A hub key whose degree grows tuple by tuple: RSJoin re-propagates only
    // on doublings, SJoin on every insert.
    val q = Queries.lineK(3)
    val rs = new ReservoirJoinEngine(q, 1, 1)
    val sj = new SJoinEngine(q, 1, 1)
    // g1 tuples first so the g2-side lists are long, then hammer one g3 key.
    val stream =
      (1 to 40).map(i => ("g1", Array(i.toLong, 1L))) ++
        (1 to 40).map(i => ("g2", Array(1L, i.toLong))) ++
        (1 to 40).map(i => ("g3", Array(1L, i.toLong)))
    for ((rel, t) <- stream) { rs.updateOnly(rel, t.clone()); sj.updateOnly(rel, t) }
    assert(sj.propagations > rs.propagations,
      s"sjoin ${sj.propagations} <= rsjoin ${rs.propagations}")
  }

  test("SJoin rejects cyclic queries") {
    val tri = JoinQuery("tri", Vector(
      RelSchema("r1", Vector("x", "y")), RelSchema("r2", Vector("y", "z")),
      RelSchema("r3", Vector("z", "x"))))
    intercept[IllegalArgumentException](new SJoinEngine(tri, 1, 1))
  }
}
