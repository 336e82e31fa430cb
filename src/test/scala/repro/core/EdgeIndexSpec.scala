package repro.core

import repro.{SparkSpec, TestKit}
import repro.core.baseline.SJoinEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** The rooted trees of an engine share one index state per directed
  * join-tree edge (plus a root state per relation with full-join tracking):
  * how many states there are, how many trees hold each, and that driving the
  * per-relation [[TreeIndex]] views one call at a time, as the benchmark's
  * traced replay does, updates each shared state once.
  */
class EdgeIndexSpec extends SparkSpec {

  private type Stream = Seq[(String, Array[Long])]

  /** Σ treeCount over the non-root states: one state per non-root relation
    * of every rooted tree.
    */
  private def perTree(e: ReservoirJoinEngine): Int = e.index.states.filterNot(_.isRoot).map(_.treeCount).sum

  test("line-5 and line-3 keep one state per directed edge: 20 → 8 and 6 → 4 untracked") {
    for ((k, perTreeCount, shared) <- Seq((5, 20, 8), (3, 6, 4))) {
      val untracked = new ReservoirJoinEngine(Queries.lineK(k), 1, 7, trackFullJoin = false)
      assert(perTree(untracked) === perTreeCount)
      assert(untracked.index.states.size === shared)
      val tracked = new ReservoirJoinEngine(Queries.lineK(k), 1, 7)
      assert(perTree(tracked) === perTreeCount)
      assert(tracked.index.states.size === shared + k)
      assert(tracked.index.states.count(_.isRoot) === k)
    }
  }

  test("star-4 and QZ under RSJoin_opt with grouping share their states") {
    val star = new ReservoirJoinEngine(Queries.starK(4), 1, 7, grouping = true)
    assert(star.index.states.size === 6 + 4)
    assert(star.index.states.exists(_.grouped), "star-4 centre states group by the shared key")
    for (track <- Seq(false, true)) {
      val opt = FkEngine.rs(Queries.qz, Queries.qzFks, 1, 7, grouping = true, trackFullJoin = track)
      val n = opt.inner.query.arity
      assert(n >= 2)
      assert(opt.inner.index.states.size === 2 * (n - 1) + (if (track) n else 0))
      assert(perTree(opt.inner) === n * (n - 1))
    }
  }

  test("each state is held by treeCount rooted trees") {
    val engines = Seq(
      new ReservoirJoinEngine(Queries.lineK(5), 1, 7),
      new ReservoirJoinEngine(Queries.lineK(5), 1, 7, trackFullJoin = false),
      new ReservoirJoinEngine(Queries.qz, 1, 7, grouping = true),
      new SJoinEngine(Queries.starK(4), 1, 7))
    for (e <- engines) {
      val q = e.query
      val trees = q.relations.indices.map(JoinTree.rooted(q, JoinTree.unrooted(q).get, _))
      for (s <- e.index.states) {
        val holding = trees.count(_.parent(s.rel) == s.parent)
        assert(holding === s.treeCount, s"state ${s.rel}→${s.parent} of ${q.name}")
      }
      val n = q.arity
      assert(perTree(e) === n * (n - 1))
    }
  }

  // --- driving the views one call at a time ---------------------------------

  private def graph(edges: Int, nodes: Int, seed: Long) = StreamGen.graphEdges(edges, nodes, seed)

  private val line5: Stream = StreamGen.lineK(5, graph(150, 40, 42), 42).stream
  private val star4: Stream = StreamGen.starK(4, graph(150, 40, 43), 43).stream
  private val qz: Stream = { val w = StreamGen.qz(0.05, 3); w.preload ++ w.stream }

  private val replays: Seq[(String, Stream, () => ReservoirJoinEngine)] = Seq(
    ("line5 RSJoin", line5, () => new ReservoirJoinEngine(Queries.lineK(5), 40, 7)),
    ("line5 RSJoin untracked", line5,
      () => new ReservoirJoinEngine(Queries.lineK(5), 40, 7, trackFullJoin = false)),
    ("line5 SJoin", line5, () => new SJoinEngine(Queries.lineK(5), 40, 7)),
    ("star4 RSJoin+grouping", star4,
      () => new ReservoirJoinEngine(Queries.starK(4), 40, 7, grouping = true)),
    ("qz RSJoin+grouping", qz, () => new ReservoirJoinEngine(Queries.qz, 40, 7, grouping = true)),
  )

  for ((name, stream, mk) <- replays) {
    test(s"every tree's onInsert, then the root's deltaBatch, draws insert's sample: $name") {
      val viaInsert = mk()
      stream.foreach { case (rel, t) => viaInsert.insert(rel, t.clone()) }
      val viaViews = mk()
      for ((rel, t) <- stream) {
        val r = viaViews.query.relIdx(rel)
        val id = viaViews.stores(r).insert(t.clone())
        viaViews.trees.foreach(_.onInsert(r, id))
        viaViews.reservoir.update(viaViews.trees(r).deltaBatch(id))
      }
      assert(viaViews.sample === viaInsert.sample)
      assert(viaViews.sample.nonEmpty)
      assert(viaViews.propagations === viaInsert.propagations)
      assert(viaViews.edgePropagations === viaInsert.edgePropagations)
      assert(viaViews.reservoir.itemsOffered === viaInsert.reservoir.itemsOffered)
      viaViews.index.states.foreach(viaViews.index.checkInvariants)
    }
  }

  test("edge propagations count each shared update once; propagations count it per tree") {
    val e = new ReservoirJoinEngine(Queries.lineK(5), 40, 7, trackFullJoin = false)
    line5.foreach { case (rel, t) => e.insert(rel, t.clone()) }
    assert(e.edgePropagations > 0)
    assert(e.propagations > e.edgePropagations)
  }

  // --- position-by-position enumeration on the shared states ----------------

  test("ΔJ enumeration and invariants on a grouped star") {
    TestKit.forCases(3, seed0 = 404) { rng =>
      val q = Queries.starK(4)
      val stream = IndexHarness.randomStream(q, steps = 120, domain = 4, rng)
      IndexHarness.compare(new ReservoirJoinEngine(q, 1, 7, grouping = true), stream)
    }
  }

  test("ΔJ enumeration and invariants on QZ, grouped and exact") {
    val payload = Set("sspay", "c1pay", "d1pay", "d2pay", "c2pay", "i1pay", "i2pay")
    TestKit.forCases(2, seed0 = 405) { rng =>
      val stream = IndexHarness.randomStream(Queries.qz, steps = 120, domain = 3, rng, payload)
      IndexHarness.compare(new ReservoirJoinEngine(Queries.qz, 1, 7, grouping = true), stream)
      IndexHarness.compare(new SJoinEngine(Queries.qz, 1, 7), stream)
    }
  }
}
