package repro.core.fk

import repro.{SparkSpec, TestKit}
import repro.core._
import repro.data.StreamGen
import repro.queries.Queries

class FkCombinerSpec extends SparkSpec {

  test("QX collapses to a single combined relation") {
    val c = new FkCombiner(Queries.qx, Queries.qxFks)
    assert(c.combinedQuery.arity === 1)
    assert(c.combinedQuery.relations.head.attrs.toSet ===
      Set("cust1", "item1", "sspay", "hdemo1", "c1pay", "income", "d1pay"))
  }

  test("QZ collapses to three combined relations") {
    val c = new FkCombiner(Queries.qz, Queries.qzFks)
    assert(c.combinedQuery.arity === 3)
    val names = c.combinedQuery.relations.map(_.name).toSet
    assert(names.exists(_.contains("ss")), names.toString)
    assert(JoinTree.isAcyclic(c.combinedQuery))
  }

  test("Q10 collapses to four combined relations, still acyclic") {
    val c = new FkCombiner(Queries.q10, Queries.q10Fks)
    assert(c.combinedQuery.arity === 4)
    assert(JoinTree.isAcyclic(c.combinedQuery))
  }

  test("translate emits a combined tuple only once the FK chain is complete") {
    val c = new FkCombiner(Queries.qx, Queries.qxFks)
    // fact first: no dimensions yet, nothing emitted
    assert(c.translate("ss", Array(1L, 1L, 100L)).isEmpty)
    assert(c.translate("c1", Array(1L, 7L, 200L)).isEmpty)  // d1 still missing
    val out = c.translate("d1", Array(7L, 3L, 300L))
    assert(out.size === 1) // releases the waiting chain
    val (_, row) = out.head
    val schema = c.combinedQuery.relations.head
    val m = schema.attrs.zip(row).toMap
    assert(m("cust1") === 1L && m("hdemo1") === 7L && m("income") === 3L)
  }

  test("late dimension releases all waiting facts") {
    val c = new FkCombiner(Queries.qx, Queries.qxFks)
    c.translate("c1", Array(5L, 9L, 1L))
    for (i <- 1 to 4) assert(c.translate("ss", Array(5L, i.toLong, 0L)).isEmpty)
    val out = c.translate("d1", Array(9L, 2L, 0L))
    assert(out.size === 4)
  }

  test("rejects an FkSpec with an unknown relation or keys other than the shared attributes") {
    for (bad <- Seq(
      FkSpec("ss", Vector("cust1"), "cx"),
      FkSpec("sx", Vector("cust1"), "c1"),
      FkSpec("ss", Vector("item1"), "c1"),
      FkSpec("ss", Vector("cust1", "item1"), "c1"),
      FkSpec("ss", Vector.empty, "c1"))) {
      val e = intercept[IllegalArgumentException](new FkCombiner(Queries.qx, Queries.qxFks :+ bad))
      assert(e.getMessage.contains(bad.toString), e.getMessage)
    }
    // A key of two attributes may list them in either order.
    val q = JoinQuery("two", Vector(
      RelSchema("f", Vector("x", "y", "p")), RelSchema("d", Vector("y", "x", "q"))))
    assert(new FkCombiner(q, Seq(FkSpec("f", Vector("y", "x"), "d"))).combinedQuery.arity === 1)
  }

  test("a repeated primary key throws naming the spec and the key, and leaves no state behind (qx)") {
    val (c1Key, d1Key) = (Queries.qxFks(0), Queries.qxFks(1))
    TestKit.forCases(3, seed0 = 47) { rng =>
      val w = StreamGen.qx(sf = 0.03, seed = rng.nextLong(1000))
      val valid = StreamGen.shuffle(w.preload ++ w.stream, rng)
      val c = new FkCombiner(Queries.qx, Queries.qxFks)
      val emitted = Vector.newBuilder[Map[String, Long]]
      def emit(r: String, t: Array[Long]): Unit =
        for ((_, row) <- c.translate(r, t)) emitted += c.combinedQuery.relations.head.attrs.zip(row).toMap
      var refused = 0
      // A key of c1 or d1 is repeated once it is present. The repeat points
      // c1 at an hdemo1 no d1 has, and gives d1 a fresh payload, so a stored
      // repeat would add rows to what comes after it.
      for (((r, t), i) <- valid.zipWithIndex) {
        emit(r, t)
        if (r == "c1" || r == "d1") {
          val (spec, key, repeat) =
            if (r == "c1") (c1Key, "cust1", Array(t(0), 1000L + i, -1L)) else (d1Key, "hdemo1", Array(t(0), t(1), -1L))
          val e = intercept[IllegalArgumentException](c.translate(r, repeat))
          assert(e.getMessage.contains(spec.toString) && e.getMessage.contains(s"$key = ${t(0)}"), e.getMessage)
          refused += 1
        }
      }
      assert(refused > 0)
      val rows = emitted.result()
      val expected = OracleCheck.bruteJoin(Queries.qx, valid)
      assert(expected.nonEmpty)
      assert(rows.size === rows.toSet.size, "a row emitted twice")
      assert(rows.toSet === expected)
    }
  }

  /** A QZ stream at a small scale, deduplicated per relation and shuffled
    * whole: dimension tuples arrive both before and after their facts.
    */
  private def shuffledQz(rng: Rng): Vector[(String, Array[Long])] = {
    val w = StreamGen.qz(sf = 0.03, seed = rng.nextLong(1000))
    val distinct = (w.preload ++ w.stream).distinctBy { case (r, t) => (r, t.toSeq) }
    StreamGen.shuffle(distinct, rng)
  }

  test("translate emits each row of each group join once, dimensions before and after facts (qz)") {
    TestKit.forCases(4, seed0 = 41) { rng =>
      val stream = shuffledQz(rng)
      val c = new FkCombiner(Queries.qz, Queries.qzFks)
      // Each combined tuple, with the base relation whose insert released it.
      val emitted = stream.flatMap { case (r, t) => c.translate(r, t).map(r -> _) }
      assert(emitted.map(_._2._1).toSet === c.combinedQuery.relations.map(_.name).toSet)
      // Some fact tuples wait for a dimension, others find theirs in place.
      assert(Set("ss", "c1", "d1", "i1").subsetOf(emitted.map(_._1).toSet))
      for ((g, gi) <- c.groups.zipWithIndex if g.size > 1) {
        val schema = c.combinedQuery.relations(gi)
        val sub = JoinQuery("grp", g.map(Queries.qz.relations(_)))
        val rows = emitted.collect { case (_, (schema.name, row)) => schema.attrs.zip(row).toMap }
        val expected = OracleCheck.bruteJoin(sub, stream.filter(x => sub.relIdx.contains(x._1)))
        assert(expected.nonEmpty, s"${schema.name}: empty group join")
        assert(rows.size === rows.toSet.size, s"${schema.name}: a row emitted twice")
        assert(rows.toSet === expected, s"${schema.name}")
      }
    }
  }

  test("translate then inner.insert leaves FkEngine.insert's sample, position by position (qz)") {
    TestKit.forCases(3, seed0 = 43) { rng =>
      val stream = shuffledQz(rng)
      val engines = Seq(
        () => FkEngine.rs(Queries.qz, Queries.qzFks, 40, 11, grouping = true, trackFullJoin = false),
        () => FkEngine.rs(Queries.qz, Queries.qzFks, 40, 11),
        () => FkEngine.sj(Queries.qz, Queries.qzFks, 40, 11))
      for (mk <- engines) {
        val direct = mk()
        IndexHarness.feed(direct, stream)
        val replayed = mk()
        for ((r, t) <- stream; (name, row) <- replayed.combiner.translate(r, t))
          replayed.inner.insert(name, row)
        assert(direct.sample.size === 40)
        assert(replayed.sample === direct.sample)
        assert(replayed.propagations === direct.propagations)
      }
    }
  }

  test("simulatedInserts counts the combined rows translate emits (qz)") {
    val w = StreamGen.qz(0.05, 3)
    val stream = w.preload ++ w.stream
    val e = FkEngine.rs(Queries.qz, Queries.qzFks, 40, 7, grouping = true, trackFullJoin = false)
    val c = new FkCombiner(Queries.qz, Queries.qzFks)
    IndexHarness.feed(e, stream.map { case (r, t) => (r, t.clone()) })
    val emitted = stream.map { case (r, t) => c.translate(r, t).size.toLong }.sum
    assert(emitted > 0)
    assert(e.simulatedInserts === emitted)
  }

  for ((name, q, fks, sf) <- Seq(
    ("qx", Queries.qx, Queries.qxFks, 0.05),
    ("qy", Queries.qy, Queries.qyFks, 0.05),
    ("qz", Queries.qz, Queries.qzFks, 0.04))) {
    test(s"FK-combined engine covers exactly the DuckDB join: $name") {
      val w = StreamGen.tpcds(q, fks, sf, seed = 13)
      val tuples = w.preload ++ w.stream
      val e = FkEngine.rs(q, fks, k = 300000, seed = 5)
      IndexHarness.feed(e, tuples)
      OracleCheck.sampleEqualsJoin(spark, q, tuples, e.sample)
    }
  }

  test("FK-combined engine covers exactly the DuckDB join: q10") {
    val w = StreamGen.q10(sf = 0.4, seed = 19)
    val tuples = w.preload ++ w.stream
    val e = FkEngine.rs(w.query, w.fks, k = 400000, seed = 6)
    IndexHarness.feed(e, tuples)
    OracleCheck.sampleEqualsJoin(spark, w.query, tuples, e.sample)
  }

  test("RSJoin with and without FK combination agree on full coverage (qy)") {
    val w = StreamGen.qy(sf = 0.05, seed = 23)
    val tuples = w.preload ++ w.stream
    val plain = new ReservoirJoinEngine(Queries.qy, 300000, 1)
    val opt = FkEngine.rs(Queries.qy, Queries.qyFks, 300000, 2)
    IndexHarness.feed(plain, tuples)
    IndexHarness.feed(opt, tuples)
    assert(plain.sample.toSet === opt.sample.toSet)
  }

  test("SJoin_opt agrees with RSJoin_opt on full coverage (qz)") {
    val w = StreamGen.qz(sf = 0.04, seed = 29)
    val tuples = w.preload ++ w.stream
    val a = FkEngine.rs(Queries.qz, Queries.qzFks, 300000, 1)
    val b = FkEngine.sj(Queries.qz, Queries.qzFks, 300000, 2)
    IndexHarness.feed(a, tuples)
    IndexHarness.feed(b, tuples)
    assert(a.sample.toSet === b.sample.toSet)
  }

  test("FK-combined sampling is uniform (qy, small instance)") {
    TestKit.forCases(1) { rng =>
      val q = Queries.qy
      val payload = Set("sspay", "c1pay", "d1pay", "d2pay", "c2pay")
      // Build a stream satisfying the FK property: dimension tuples get
      // unique keys (domain tuples deduped by randomStream are not unique
      // per key) — so generate dimensions explicitly.
      val dims =
        (1 to 6).map(i => ("d1", Array(i.toLong, 1L + (i % 2).toLong, rng.nextLong(5)))) ++
        (1 to 6).map(i => ("d2", Array(i.toLong, 1L + (i % 2).toLong, rng.nextLong(5)))) ++
        (1 to 8).map(i => ("c1", Array(i.toLong, 1L + rng.nextLong(6), rng.nextLong(5)))) ++
        (1 to 8).map(i => ("c2", Array(i.toLong, 1L + rng.nextLong(6), rng.nextLong(5))))
      // Set semantics: the paper assumes a duplicate-free stream, so dedupe
      // the generated fact tuples.
      val facts = (1 to 15).map(_ =>
        ("ss", Seq(1L + rng.nextLong(8), 1L + rng.nextLong(3), rng.nextLong(5))))
        .distinct.map { case (r, v) => (r, v.toArray) }
      val stream = StreamGen.shuffle((dims ++ facts).toIndexedSeq, rng)
      val all = OracleCheck.bruteJoin(q, stream)
      val m = all.size
      assert(m >= 15 && m <= 3000, s"inconvenient instance size $m")
      val k = 5
      val runs = 1000
      val counts = IndexHarness.inclusionCounts(
        s => FkEngine.rs(q, Queries.qyFks, k, s), stream, runs)
      assert(counts.keySet.subsetOf(all))
      TestKit.assertUniform(counts, m, k, runs, "fk-qy")
    }
  }
}
