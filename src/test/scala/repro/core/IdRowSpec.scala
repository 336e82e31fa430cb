package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import repro.SparkSpec
import repro.core.Proj.JoinRow
import repro.core.cyclic.GhdEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** Join rows are [[IdRow]] views over tuple ids: they must behave as the
  * plain attribute → value maps they stand for.
  */
class IdRowSpec extends SparkSpec {

  private val line3 = StreamGen.lineK(3, StreamGen.graphEdges(60, 14, 5), 5).stream

  private def line3Sample(): Seq[JoinRow] = {
    val e = new ReservoirJoinEngine(Queries.lineK(3), 30, 9)
    line3.foreach { case (r, t) => e.insert(r, t) }
    assert(e.sample.size === 30)
    assert(e.sample.forall(_.isInstanceOf[IdRow]))
    e.sample
  }

  /** The same entries as `r`, in a map built from them. */
  private def plain(r: JoinRow): Map[String, Long] = r.iterator.toMap

  test("an IdRow equals the plain Map with the same entries, both ways, with its hashCode") {
    for (r <- line3Sample()) {
      val m = plain(r)
      assert(!m.isInstanceOf[IdRow])
      assert(m.size === 4)
      assert(r == m && m == r)
      assert(r.hashCode === m.hashCode)
      assert(r != m.updated("v1", m("v1") + 1) && m.updated("v1", m("v1") + 1) != r)
      assert(Set[JoinRow](m).contains(r) && Set[JoinRow](r).contains(m))
    }
  }

  test("get of an absent attribute is None") {
    val r = line3Sample().head
    assert(r.get("nope") === None)
    assert(!r.contains("nope"))
    assert(r.get("v1") === plain(r).get("v1"))
  }

  test("updated and removed return plain maps with the expected entries") {
    val r = line3Sample().head
    val m = plain(r)
    val u = r.updated("v1", -7L)
    assert(!u.isInstanceOf[IdRow] && u === m.updated("v1", -7L))
    val added = r.updated("extra", 3L)
    assert(added.size === 5 && added("extra") === 3L && added.removed("extra") === m)
    val d = r.removed("v2")
    assert(!d.isInstanceOf[IdRow] && d === m.removed("v2") && d.size === 3)
    assert(r.removed("nope") === m)
  }

  test("a Java-serialization round trip gives an equal row") {
    val r = line3Sample().head
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(r); oos.close()
    val back = new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray)).readObject()
    assert(back === r)
    assert(back.hashCode === r.hashCode)
  }

  test("two rows retrieved one after the other from one batch are independent") {
    val e = new ReservoirJoinEngine(Queries.lineK(3), 1, 1)
    var found = false
    for ((rel, t) <- line3 if !found) {
      val b = e.updateOnly(rel, t)
      val real = (0L until b.size).filter(b.retrieve(_).isDefined)
      if (real.size >= 2) {
        val first = b.retrieve(real.head).get
        val before = plain(first)
        // The second retrieve overwrites the index's scratch ids; the first
        // row must keep its own.
        val second = b.retrieve(real.last).get
        assert(plain(first) === before)
        assert(first != second)
        found = true
      }
    }
    assert(found, "no batch with two real rows")
  }

  test("a sample taken earlier keeps its rows through later replacements") {
    val e = new ReservoirJoinEngine(Queries.lineK(3), 30, 9)
    val (first, rest) = line3.splitAt(line3.size / 2)
    first.foreach { case (r, t) => e.insert(r, t) }
    val before = e.sample
    assert(before.size === 30)
    val entries = before.map(plain)
    val stops = e.reservoir.stats.stops
    rest.foreach { case (r, t) => e.insert(r, t) }
    assert(e.reservoir.stats.stops > stops && e.sample != before, "no replacement after the snapshot")
    assert(before.map(plain) === entries)
  }

  // --- the reservoir's id matrix --------------------------------------------

  private val line3Layout = {
    val q = Queries.lineK(3)
    new RowLayout(q, q.relations.map(new RelationStore(_)))
  }

  private def idsOf(r: JoinRow): Seq[Int] = r.asInstanceOf[IdRow].ids.toSeq

  test("the id matrix refuses to grow past its capacity with an IllegalStateException naming k and the arity") {
    val scratch = new Array[Int](3)
    val m = new IdMatrix(10, line3Layout, scratch, capacity = 20)
    for (i <- 0 until 6) { java.util.Arrays.fill(scratch, i); m.append() }
    val e = intercept[IllegalStateException](m.append())
    assert(e.getMessage.contains("k = 10") && e.getMessage.contains("arity 3"), e.getMessage)
    assert(m.length === 6)
    assert((0 until 6).map(i => idsOf(m(i))) === (0 until 6).map(i => Seq(i, i, i)))
    intercept[IllegalArgumentException](m.stage(Map("v1" -> 1L)))
  }

  test("the id matrix grows by the rows it holds, whatever k, and rows read back after puts") {
    val scratch = new Array[Int](3)
    val m = new IdMatrix(Int.MaxValue, line3Layout, scratch) // k · 3 is past Int.MaxValue
    for (i <- 0 until 5) { scratch(0) = i; scratch(1) = -i; scratch(2) = 7; m.append() }
    scratch(0) = 40; scratch(1) = 41; scratch(2) = 42
    m.put(4)
    m.put(0)
    assert((0 until 5).map(i => idsOf(m(i))) ===
      Seq(Seq(40, 41, 42), Seq(1, -1, 7), Seq(2, -2, 7), Seq(3, -3, 7), Seq(40, 41, 42)))
    val row = m(1)
    m.put(1)
    assert(idsOf(row) === Seq(1, -1, 7), "a row read before a put keeps its ids")
  }

  test("FullJoinSampler draws are join results") {
    val q = Queries.lineK(3)
    val e = new ReservoirJoinEngine(q, 1, 1)
    line3.foreach { case (r, t) => e.updateOnly(r, t) }
    val all = OracleCheck.bruteJoin(q, line3)
    val s = new FullJoinSampler(e, seed = 4)
    for (_ <- 1 to 200) {
      val row = s.draw().get
      assert(row.isInstanceOf[IdRow])
      assert(all.contains(row), s"$row is not a join result")
    }
  }

  test("FkEngine.rs and FkEngine.sj samples on QZ are join results") {
    val w = StreamGen.qz(sf = 0.04, seed = 29)
    val tuples = w.preload ++ w.stream
    val all = OracleCheck.bruteJoin(Queries.qz, tuples)
    for (e <- Seq(FkEngine.rs(Queries.qz, Queries.qzFks, 50, 3, grouping = true),
                  FkEngine.sj(Queries.qz, Queries.qzFks, 50, 3))) {
      tuples.foreach { case (r, t) => e.insert(r, t) }
      assert(e.sample.size === math.min(50, all.size))
      assert(e.sample.forall(_.isInstanceOf[IdRow]))
      assert(e.sample.forall(all.contains), "sampled row outside the join")
      assert(e.sample.toSet.size === e.sample.size)
    }
  }

  test("GhdEngine.triangle samples are triangles") {
    val edges = StreamGen.graphEdges(80, 16, 7)
    val stream = StreamGen.shuffle(
      (for (i <- 1 to 3; e <- edges) yield (s"g$i", Array(e._1, e._2))).toIndexedSeq, new Rng(3))
    val es = edges.toSet
    val triangles: Set[JoinRow] = (for {
      (x, y) <- es; (yy, z) <- es if yy == y && es.contains((z, x))
    } yield Map("x1" -> x, "x2" -> y, "x3" -> z)).toSet
    val e = GhdEngine.triangle(k = 10, seed = 5)
    stream.foreach { case (r, t) => e.insert(r, t) }
    assert(e.sample.size === math.min(10, triangles.size))
    assert(e.sample.forall(_.isInstanceOf[IdRow]))
    assert(e.sample.forall(triangles.contains), "sampled row is not a triangle")
  }
}
