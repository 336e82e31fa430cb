package repro.core.cyclic

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.core.Proj.JoinRow

/** A GHD node materializer: owns some base relations and incrementally
  * produces the delta results of its node subquery `Q_u` on every insert
  * (Section 5). The deltas are streamed as inserts of the node's output
  * relation into the inner acyclic engine.
  */
trait GhdNode extends Serializable {
  /** Output relation of this node in the inner (acyclic) query. */
  def output: RelSchema
  /** Base relations this node consumes. */
  def inputs: Seq[String]
  /** Absorb one base tuple; return the delta tuples of `Q_u` (output layout). */
  def insert(rel: String, values: Array[Long]): ArrayBuffer[Array[Long]]
  def approxBytes: Long
}

/** Identity node: a base relation covered by its own GHD bag. */
final class EdgeNode(val schema: RelSchema) extends GhdNode {
  def output: RelSchema = schema
  def inputs: Seq[String] = Seq(schema.name)
  def insert(rel: String, values: Array[Long]): ArrayBuffer[Array[Long]] = {
    val out = new ArrayBuffer[Array[Long]](1)
    out += values
    out
  }
  def approxBytes: Long = 0L
}

/** Triangle node for the directed 3-cycle `Ra(x,y) ⋈ Rb(y,z) ⋈ Rc(z,x)`
  * (the paper's `G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G1.src`),
  * with output `(x, y, z)`. Edge tuples arrive as `(src, dst)`.
  *
  * Deltas are computed AGM-style: intersect the two adjacency lists of the
  * endpoints of the arriving edge, iterating the smaller one (worst-case
  * O(N^{1/2}) per edge, O(N^{1.5}) total — the fractional-hypertree-width
  * cost the paper cites for w = 1.5 bags).
  */
final class TriangleNode(
    val ra: String, val rb: String, val rc: String,
    x: String, y: String, z: String,
) extends GhdNode {

  val output: RelSchema = RelSchema(s"tri_${ra}_${rb}_$rc", Vector(x, y, z))
  def inputs: Seq[String] = Seq(ra, rb, rc)

  // Adjacency in both directions per relation: src → dsts and dst → srcs.
  private def newAdj = mutable.HashMap.empty[Long, mutable.LinkedHashSet[Long]]
  private val aFwd = newAdj; private val aBwd = newAdj // Ra: x→y, y→x
  private val bFwd = newAdj; private val bBwd = newAdj // Rb: y→z, z→y
  private val cFwd = newAdj; private val cBwd = newAdj // Rc: z→x, x→z

  private def add(m: mutable.HashMap[Long, mutable.LinkedHashSet[Long]], k: Long, v: Long): Unit =
    m.getOrElseUpdate(k, mutable.LinkedHashSet.empty[Long]) += v

  private def get(m: mutable.HashMap[Long, mutable.LinkedHashSet[Long]], k: Long) =
    m.getOrElse(k, TriangleNode.Empty)

  /** Iterate the smaller set, probe the larger. */
  private def intersect(s1: mutable.LinkedHashSet[Long], s2: mutable.LinkedHashSet[Long],
                        f: Long => Unit): Unit = {
    val (small, large) = if (s1.size <= s2.size) (s1, s2) else (s2, s1)
    small.foreach(v => if (large.contains(v)) f(v))
  }

  def insert(rel: String, values: Array[Long]): ArrayBuffer[Array[Long]] = {
    val out = new ArrayBuffer[Array[Long]]()
    val (u, v) = (values(0), values(1))
    rel match {
      case `ra` => // (x=u, y=v): z ∈ bFwd(v) ∩ cBwd(u)
        intersect(get(bFwd, v), get(cBwd, u), w => out += Array(u, v, w))
        add(aFwd, u, v); add(aBwd, v, u)
      case `rb` => // (y=u, z=v): x ∈ aBwd(u) ∩ cFwd(v)
        intersect(get(aBwd, u), get(cFwd, v), w => out += Array(w, u, v))
        add(bFwd, u, v); add(bBwd, v, u)
      case `rc` => // (z=u, x=v): y ∈ aFwd(v) ∩ bBwd(u)
        intersect(get(aFwd, v), get(bBwd, u), w => out += Array(v, w, u))
        add(cFwd, u, v); add(cBwd, v, u)
      case other => throw new IllegalArgumentException(s"$other not in triangle node")
    }
    out
  }

  def approxBytes: Long =
    Seq(aFwd, aBwd, bFwd, bBwd, cFwd, cBwd)
      .map(m => m.size.toLong * 64L + m.valuesIterator.map(_.size.toLong * 48L).sum).sum
}

object TriangleNode {
  private val Empty = mutable.LinkedHashSet.empty[Long]
}

/** Reservoir sampling over a cyclic join via a GHD (Section 5): each arriving
  * base tuple is routed to its owning node; the node's sub-join deltas are
  * inserted, one by one, into an inner acyclic RSJoin engine over the
  * decomposition tree (lines 5–7 of Algorithm 6 per delta tuple).
  */
final class GhdEngine(
    val name: String,
    val ghdNodes: Vector[GhdNode],
    val k: Int,
    seed: Long,
) extends SamplingEngine {

  val innerQuery: JoinQuery = JoinQuery(name + "_ghd", ghdNodes.map(_.output))
  val inner = new ReservoirJoinEngine(innerQuery, k, seed)

  private val owner: Map[String, Int] =
    ghdNodes.zipWithIndex.flatMap { case (nd, i) => nd.inputs.map(_ -> i) }.toMap

  /** Total sub-join delta tuples produced (size of the simulated stream). */
  var simulatedInserts: Long = 0L

  def insert(rel: String, values: Array[Long]): Unit = {
    val ni = owner.getOrElse(rel, throw new IllegalArgumentException(s"unknown relation $rel"))
    val nd = ghdNodes(ni)
    val deltas = nd.insert(rel, values)
    var i = 0
    while (i < deltas.length) {
      inner.insert(nd.output.name, deltas(i))
      simulatedInserts += 1
      i += 1
    }
  }

  def sample: Seq[JoinRow] = inner.sample
  def propagations: Long = inner.propagations
  def edgePropagations: Long = inner.edgePropagations
  def approxBytes: Long = inner.approxBytes + ghdNodes.map(_.approxBytes).sum
}

object GhdEngine {

  /** The paper's dumbbell query: two directed triangles bridged by an edge
    * `G7(G1.src, G4.src)`. GHD bags: {x1,x2,x3} (triangle 1), {x1,x4}
    * (bridge G7), {x4,x5,x6} (triangle 2); fractional hypertree width 1.5.
    */
  def dumbbell(k: Int, seed: Long): GhdEngine = {
    val t1 = new TriangleNode("g1", "g2", "g3", "x1", "x2", "x3")
    val t2 = new TriangleNode("g4", "g5", "g6", "x4", "x5", "x6")
    val bridge = new EdgeNode(RelSchema("g7", Vector("x1", "x4")))
    new GhdEngine("dumbbell", Vector(t1, bridge, t2), k, seed)
  }

  /** A single triangle (width-1.5 single-bag GHD) — the minimal cyclic case. */
  def triangle(k: Int, seed: Long): GhdEngine = {
    val t = new TriangleNode("g1", "g2", "g3", "x1", "x2", "x3")
    new GhdEngine("triangle", Vector(t), k, seed)
  }
}
