package repro.core

import repro.{SparkSpec, TestKit}
import repro.core.baseline.SJoinEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** The rooted trees of an engine share one index state per directed
  * join-tree edge (plus a root state per relation with full-join tracking):
  * how many states there are, which trees hold them, and that driving the
  * per-tree views one call at a time updates each shared state once.
  */
class EdgeIndexSpec extends SparkSpec {

  private type Stream = Seq[(String, Array[Long])]

  /** The distinct objects among `states`, by reference. */
  private def distinct(states: Seq[EdgeState]): List[EdgeState] =
    states.foldLeft(List.empty[EdgeState])((acc, s) => if (acc.exists(_ eq s)) acc else s :: acc)

  private def viewStates(e: ReservoirJoinEngine): Seq[EdgeState] = e.trees.flatMap(_.nodes)

  test("line-5 and line-3 keep one state per directed edge: 20 → 8 and 6 → 4 untracked") {
    for ((k, perTree, shared) <- Seq((5, 20, 8), (3, 6, 4))) {
      val untracked = new ReservoirJoinEngine(Queries.lineK(k), 1, 7, trackFullJoin = false)
      assert(viewStates(untracked).size === perTree)
      assert(distinct(viewStates(untracked)).size === shared)
      assert(untracked.index.states.size === shared)
      val tracked = new ReservoirJoinEngine(Queries.lineK(k), 1, 7)
      assert(distinct(viewStates(tracked)).size === shared + k)
      assert(tracked.index.states.size === shared + k)
      assert(tracked.index.states.count(_.isRoot) === k)
    }
  }

  test("star-4 and QZ under RSJoin_opt with grouping share their states") {
    val star = new ReservoirJoinEngine(Queries.starK(4), 1, 7, grouping = true)
    assert(distinct(viewStates(star)).size === 6 + 4)
    assert(star.index.states.exists(_.grouped), "star-4 centre states group by the shared key")
    for (track <- Seq(false, true)) {
      val opt = FkEngine.rs(Queries.qz, Queries.qzFks, 1, 7, grouping = true, trackFullJoin = track)
      val n = opt.inner.query.arity
      assert(n >= 2)
      val expected = 2 * (n - 1) + (if (track) n else 0)
      assert(distinct(viewStates(opt.inner)).size === expected)
      assert(opt.inner.index.states.size === expected)
    }
  }

  test("each state is held by treeCount views and owned by the lowest of their roots") {
    val engines = Seq(
      new ReservoirJoinEngine(Queries.lineK(5), 1, 7),
      new ReservoirJoinEngine(Queries.lineK(5), 1, 7, trackFullJoin = false),
      new ReservoirJoinEngine(Queries.qz, 1, 7, grouping = true),
      new SJoinEngine(Queries.starK(4), 1, 7))
    for (e <- engines) {
      for (s <- e.index.states) {
        val roots = e.trees.indices.filter(i => e.trees(i).nodes.exists(_ eq s))
        assert(roots.size === s.treeCount, s"state ${s.rel}→${s.parent} of ${e.query.name}")
        assert(roots.min === s.owner)
      }
      val n = e.query.arity
      assert(e.index.states.filterNot(_.isRoot).map(_.treeCount).sum === n * (n - 1))
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
      viaViews.trees.foreach(_.checkInvariants())
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
