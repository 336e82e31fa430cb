package repro.core.cyclic

import scala.collection.mutable

import repro.{Oracle, SparkSpec, SynthDataX, TestKit}
import repro.core.{RelSchema, Rng, RowSink}
import repro.data.StreamGen

class GhdEngineSpec extends SparkSpec {

  private type Edges = Seq[(Long, Long)]

  /** Brute-force bag join of the directed 3-cycle pattern: one row per
    * triple of edges that closes, so repeated edges multiply.
    */
  private def bagTriangles(e1: Edges, e2: Edges, e3: Edges): Seq[(Long, Long, Long)] =
    for {
      (x, y) <- e1
      (yy, z) <- e2 if yy == y
      (zz, xx) <- e3 if zz == z && xx == x
    } yield (x, y, z)

  /** Brute-force bag dumbbell join: triangles over `g(0..2)` and `g(3..5)`
    * bridged by `g(6)` from the first's `x1` to the second's `x4`.
    */
  private def bagDumbbells(g: IndexedSeq[Edges]): Seq[Map[String, Long]] =
    for {
      (x1, x2, x3) <- bagTriangles(g(0), g(1), g(2))
      (b1, x4) <- g(6) if b1 == x1
      (y4, x5, x6) <- bagTriangles(g(3), g(4), g(5)) if y4 == x4
    } yield Map("x1" -> x1, "x2" -> x2, "x3" -> x3, "x4" -> x4, "x5" -> x5, "x6" -> x6)

  private def counts[A](xs: Iterable[A]): Map[A, Int] = xs.groupBy(identity).map { case (a, as) => a -> as.size }

  /** The rows a node emits over `stream`, as (x, y, z). */
  private def nodeOutput(stream: Seq[(String, Array[Long])]): Seq[(Long, Long, Long)] = {
    val node = new TriangleNode("g1", "g2", "g3", "x1", "x2", "x3")
    val got = mutable.ArrayBuffer.empty[(Long, Long, Long)]
    val sink = new RowSink { def emit(rel: Int, a: Array[Long]): Unit = got += ((a(0), a(1), a(2))) }
    for ((rel, t) <- stream) node.insert(node.inputs.indexOf(rel), t, sink, 0)
    got.toSeq
  }

  /** Edges drawn with replacement over `nodes` nodes, so that repeats occur. */
  private def multigraph(m: Int, nodes: Int, rng: Rng): Vector[(Long, Long)] =
    Vector.fill(m)((1L + rng.nextLong(nodes), 1L + rng.nextLong(nodes)))

  test("triangle node produces each triangle exactly once, on its last edge") {
    TestKit.forCases(10) { rng =>
      val edges = StreamGen.graphEdges(60, 14, rng.nextLong())
      val stream = StreamGen.shuffle(
        (for (i <- 1 to 3; e <- edges) yield (s"g$i", Array(e._1, e._2))).toIndexedSeq, rng)
      assert(counts(nodeOutput(stream)) === counts(bagTriangles(edges, edges, edges)))
    }
  }

  test("a repeated edge counts once per copy, whatever the arrival order") {
    val g1 = ("g1", Array(1L, 2L))
    val (g2, g3) = (("g2", Array(2L, 3L)), ("g3", Array(3L, 1L)))
    for (stream <- Seq(Seq(g1, g1, g2, g3), Seq(g2, g3, g1, g1))) {
      assert(nodeOutput(stream) === Seq((1L, 2L, 3L), (1L, 2L, 3L)), stream.map(_._1))
      val engine = GhdEngine.triangle(k = 10, seed = 1)
      stream.foreach { case (r, t) => engine.insert(r, t) }
      assert(engine.sample.size === 2 && engine.simulatedInserts === 2)
    }
  }

  test("multigraph streams: node output and a k >= |Q| sample are the bag join, in any order") {
    TestKit.forCases(8, seed0 = 4100) { rng =>
      val tri = IndexedSeq.fill(3)(multigraph(40, 5, rng))
      val triStream = for (i <- 0 until 3; e <- tri(i)) yield (s"g${i + 1}", Array(e._1, e._2))
      val expectedTri = bagTriangles(tri(0), tri(1), tri(2))
      val g = IndexedSeq.fill(7)(multigraph(14, 4, rng))
      val dumbStream = for (i <- 0 until 7; e <- g(i)) yield (s"g${i + 1}", Array(e._1, e._2))
      val expectedDumb = counts(bagDumbbells(g))
      assert(expectedTri.size > expectedTri.distinct.size && expectedDumb.values.exists(_ > 1),
        "no repeated result row: raise the repeats")
      for (order <- 0 until 3) {
        val s = StreamGen.shuffle(triStream, rng)
        assert(counts(nodeOutput(s)) === counts(expectedTri), s"triangle node, order $order")
        val te = GhdEngine.triangle(k = expectedTri.size + 1, seed = order)
        s.foreach { case (r, t) => te.insert(r, t) }
        assert(counts(te.sample.map(r => (r("x1"), r("x2"), r("x3")))) === counts(expectedTri),
          s"triangle engine, order $order")
        val de = GhdEngine.dumbbell(k = expectedDumb.values.sum + 1, seed = order)
        StreamGen.shuffle(dumbStream, rng).foreach { case (r, t) => de.insert(r, t) }
        assert(counts(de.sample) === expectedDumb, s"dumbbell engine, order $order")
      }
    }
  }

  test("triangle GHD engine with k >= all samples every triangle (DuckDB oracle)") {
    val edges = StreamGen.graphEdges(80, 16, 7)
    val rng = new Rng(3)
    val stream = StreamGen.shuffle(
      (for (i <- 1 to 3; e <- edges) yield (s"g$i", Array(e._1, e._2))).toIndexedSeq, rng)
    val engine = GhdEngine.triangle(k = 100000, seed = 5)
    stream.foreach { case (r, t) => engine.insert(r, t) }
    val sample = engine.sample
    assert(sample.nonEmpty, "no triangles in the test graph")
    // Oracle: DuckDB triangle SQL over the edge table.
    val schema = RelSchema("tri", Vector("x1", "x2", "x3"))
    val df = SynthDataX.tableDf(spark, schema,
      sample.map(r => Array(r("x1"), r("x2"), r("x3"))))
    Oracle.assertEquivalent(df,
      """SELECT g1.src AS x1, g1.dst AS x2, g2.dst AS x3
        |FROM g AS g1, g AS g2, g AS g3
        |WHERE g1.dst = g2.src AND g2.dst = g3.src AND g3.dst = g1.src""".stripMargin,
      "g" -> SynthDataX.edgesDf(spark, edges))
  }

  test("dumbbell engine with k >= all covers the brute-force dumbbell join") {
    val edges = StreamGen.graphEdges(40, 11, 11)
    val stream = StreamGen.dumbbell(edges, seed = 9)
    val engine = GhdEngine.dumbbell(k = 500000, seed = 5)
    stream.foreach { case (r, t) => engine.insert(r, t) }
    val tris = bagTriangles(edges, edges, edges).toSet
    val bridge = edges.toSet
    val expected = for {
      (x1, x2, x3) <- tris
      (b1, x4) <- bridge if b1 == x1
      (y4, y5, y6) <- tris if y4 == x4
    } yield Map("x1" -> x1, "x2" -> x2, "x3" -> x3, "x4" -> x4, "x5" -> y5, "x6" -> y6)
    val got = engine.sample.toSet
    assert(got === expected.toSet,
      s"got ${got.size} expected ${expected.size} dumbbells")
  }

  test("dumbbell sampling is uniform over dumbbells (small instance)") {
    // Find a seed with a convenient number of dumbbells.
    val edges = StreamGen.graphEdges(35, 9, 13)
    val stream = StreamGen.dumbbell(edges, seed = 2)
    val probe = GhdEngine.dumbbell(k = 500000, seed = 1)
    stream.foreach { case (r, t) => probe.insert(r, t) }
    val all = probe.sample.toSet
    val m = all.size
    assert(m >= 10, s"only $m dumbbells — enlarge the instance")
    val k = 4
    val runs = 800
    val counts = mutable.HashMap.empty[Map[String, Long], Int].withDefaultValue(0)
    for (r <- 0 until runs) {
      val e = GhdEngine.dumbbell(k, seed = 100 + r)
      stream.foreach { case (rel, t) => e.insert(rel, t) }
      e.sample.foreach(row => counts(row) += 1)
    }
    assert(counts.keySet.subsetOf(all))
    repro.TestKit.assertUniform(counts.toMap, m, k, runs, "dumbbell")
  }

  test("simulated stream size is bounded and counted") {
    val edges = StreamGen.graphEdges(50, 12, 17)
    val stream = StreamGen.dumbbell(edges, seed = 3)
    val engine = GhdEngine.dumbbell(k = 10, seed = 4)
    stream.foreach { case (r, t) => engine.insert(r, t) }
    // Simulated inserts = 2·(#triangles) + |G7| exactly.
    val tris = bagTriangles(edges, edges, edges).size
    assert(engine.simulatedInserts === 2L * tris + edges.size)
  }

  test("unknown relation is rejected") {
    intercept[IllegalArgumentException](
      GhdEngine.triangle(1, 1).insert("g9", Array(1L, 2L)))
  }

  test("a triangle or bridge tuple of arity other than 2 is rejected") {
    val engine = GhdEngine.dumbbell(k = 10, seed = 1)
    for (rel <- Seq("g1", "g3", "g7"); t <- Seq(Array(1L), Array(1L, 2L, 3L)))
      intercept[IllegalArgumentException](engine.insert(rel, t))
    assert(engine.simulatedInserts === 0)
  }
}
