package repro.core

import repro.{SparkSpec, TestKit}
import repro.queries.Queries

/** Deterministic position-by-position verification of the dynamic index
  * (Algorithms 7–9) against brute force, across query shapes, domains and
  * stream lengths — no statistics involved.
  */
class TreeIndexSpec extends SparkSpec {

  private val shapes: Seq[(String, JoinQuery)] = Seq(
    "line2" -> Queries.lineK(2),
    "line3" -> Queries.lineK(3),
    "line4" -> Queries.lineK(4),
    "line5" -> Queries.lineK(5),
    "star3" -> Queries.starK(3),
    "star4" -> Queries.starK(4),
    "star5" -> Queries.starK(5),
    "qx"    -> Queries.qx,
    "qy"    -> Queries.qy,
    "qz"    -> Queries.qz,
  )

  for ((name, q) <- shapes; domain <- Seq(2, 4, 8)) {
    test(s"ΔJ enumeration matches brute force: $name, domain $domain") {
      TestKit.forCases(3, seed0 = name.hashCode + domain) { rng =>
        val stream = IndexHarness.randomStream(q, steps = 120, domain, rng)
        IndexHarness.compare(new ReservoirJoinEngine(q, 1, 7), stream)
      }
    }
  }

  for ((name, q) <- Seq("qy" -> Queries.qy, "qz" -> Queries.qz, "q10" -> Queries.q10)) {
    test(s"ΔJ enumeration matches brute force with grouping: $name") {
      val payload = Set("sspay", "c1pay", "d1pay", "d2pay", "c2pay", "i1pay", "i2pay",
        "t1pay", "t2pay", "tcpay", "p1pay", "citypay", "ctrypay", "p2pay")
      TestKit.forCases(3, seed0 = name.hashCode) { rng =>
        val steps = if (q.arity > 8) 70 else 120
        val domain = if (q.arity > 8) 4 else 3
        val stream = IndexHarness.randomStream(q, steps, domain, rng, payload)
        IndexHarness.compare(new ReservoirJoinEngine(q, 1, 7, grouping = true), stream)
      }
    }
  }

  test("grouping and non-grouping engines report identical batch sizes per step") {
    TestKit.forCases(3) { rng =>
      val q = Queries.qz
      val payload = Set("sspay", "c1pay", "d1pay", "d2pay", "c2pay", "i1pay", "i2pay")
      val stream = IndexHarness.randomStream(q, steps = 150, domain = 3, rng, payload)
      val a = new ReservoirJoinEngine(q, 1, 7, grouping = false)
      val b = new ReservoirJoinEngine(q, 1, 7, grouping = true)
      for ((rel, t) <- stream) {
        val ba = a.updateOnly(rel, t)
        val bb = b.updateOnly(rel, t.clone())
        // Real content must agree; the approximate |ΔJ| may differ, but both
        // must contain exactly the real delta.
        val ra = (0L until ba.size).flatMap(ba.retrieve).toSet
        val rb = (0L until bb.size).flatMap(bb.retrieve).toSet
        assert(ra === rb)
      }
      // Grouping reduces propagation work on payload-heavy streams (allow a
      // small absolute slack: the approximate-count doubling points differ).
      assert(b.propagations <= a.propagations + 50,
        s"grouping propagations ${b.propagations} >> plain ${a.propagations}")
    }
  }

  test("grouping is a no-op decision on graph queries (no payload attrs)") {
    val q = Queries.lineK(3)
    val e = new ReservoirJoinEngine(q, 1, 7, grouping = true)
    // No node has attrs outside ē on line joins, so none is grouped.
    for (node <- e.index.states) assert(!node.grouped)
  }

  test("QZ with grouping actually groups the payload-bearing internal nodes") {
    val e = new ReservoirJoinEngine(Queries.qz, 1, 7, grouping = true)
    val groupedSomewhere = e.index.states.exists(_.grouped)
    assert(groupedSomewhere, "expected at least one grouped node across QZ trees")
  }

  test("empty-join streams produce only empty batches") {
    val q = Queries.lineK(3)
    val e = new ReservoirJoinEngine(q, 1, 7)
    // All tuples in g1 only: no join results ever.
    for (i <- 1 to 50) {
      val b = e.updateOnly("g1", Array(i.toLong, i.toLong + 1))
      assert(b.size === 0L)
    }
    assert(e.index.fullCount(0) === 0L)
  }

  test("two-table join batches are exact and 1-dense") {
    TestKit.forCases(5) { rng =>
      val q = Queries.lineK(2)
      val stream = IndexHarness.randomStream(q, steps = 150, domain = 5, rng)
      val e = new ReservoirJoinEngine(q, 1, 7)
      val brute = new DeltaEnumerator(q)
      for ((rel, t) <- stream) {
        val b = e.updateOnly(rel, t)
        val exp = brute.insertAndDelta(rel, t.clone())
        // Two-table joins need no dummies: |ΔJ| = |ΔQ| exactly.
        assert(b.size === exp.size.toLong, s"$rel ${t.toSeq}")
        assert((0L until b.size).flatMap(b.retrieve).toSet === exp.toSet)
      }
    }
  }

  test("cnt~ is a Lemma 4.4-style constant-factor bound at every key") {
    TestKit.forCases(3) { rng =>
      val q = Queries.lineK(3)
      val stream = IndexHarness.randomStream(q, steps = 150, domain = 4, rng)
      val e = new ReservoirJoinEngine(q, 1, 7)
      stream.foreach { case (rel, t) => e.updateOnly(rel, t) }
      val brute = new DeltaaCount(q, stream)
      val edges = JoinTree.unrooted(q).get
      for (node <- e.index.states if !node.isRoot) {
        // A tree in which node.parent is node.rel's parent: the one rooted there.
        val tree = JoinTree.rooted(q, edges, node.parent)
        for (k <- node.byKey.indices; ks = node.byKey(k) if ks != null) {
          // The key id's values, in the order the rooted tree lists them.
          val values = node.keyIx.dict.key(k)
          val key = tree.key(node.rel).map(a => values(node.keyAttrs.indexOf(a)))
          val exact = brute.subtreeCount(tree, node.rel, key)
          assert(ks.cnt >= exact, s"cnt ${ks.cnt} < exact degree $exact")
          val bound = math.pow(2.0, countSubtree(tree, node.rel)).toLong
          assert(ks.cnt <= bound * math.max(exact, 1),
            s"cnt ${ks.cnt} > 2^|T_e| * degree ($bound * $exact)")
        }
      }
    }
  }

  private def countSubtree(t: RootedTree, rel: Int): Int =
    1 + t.children(rel).map(countSubtree(t, _)).sum

  /** Brute-force subtree join counts for the Lemma 4.4 test. */
  private final class DeltaaCount(q: JoinQuery, stream: Seq[(String, Array[Long])]) {
    private val byRel = stream.groupBy(_._1).map { case (r, ts) => r -> ts.map(_._2) }
    def subtreeCount(tree: RootedTree, rel: Int, key: IndexedSeq[Long]): Long = {
      val schema = q.relations(rel)
      val keyIdx = schema.idxOf(tree.key(rel))
      byRel.getOrElse(schema.name, Nil).iterator.map { t =>
        if (keyIdx.map(t).toIndexedSeq == key) {
          tree.children(rel).map { c =>
            val childKeyIdx = schema.idxOf(tree.key(c))
            subtreeCount(tree, c, childKeyIdx.map(t).toIndexedSeq)
          }.product
        } else 0L
      }.sum
    }
  }
}
