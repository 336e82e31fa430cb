package repro.core.cyclic

import scala.collection.mutable

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
  /** Absorb one tuple of `inputs(rel)`; pass each delta tuple of `Q_u`
    * (output layout, once per multiplicity) to `out`, tagged `tag`.
    */
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit
  def approxBytes: Long
}

/** Identity node: a base relation covered by its own GHD bag. */
final class EdgeNode(val schema: RelSchema) extends GhdNode {
  def output: RelSchema = schema
  def inputs: Seq[String] = Seq(schema.name)
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit = out.emit(tag, values)
  def approxBytes: Long = 0L
}

/** Triangle node for the directed 3-cycle `Ra(x,y) ⋈ Rb(y,z) ⋈ Rc(z,x)`
  * (the paper's `G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G1.src`),
  * with output `(x, y, z)`. Edge tuples arrive as `(src, dst)`; repeats are
  * kept, so the output is the bag join. Relation `i` is a [[RelationStore]]
  * over output attributes `i` and `i+1` (mod 3), with key indexes on its
  * source, its destination and the whole edge, over dictionaries shared per
  * attribute list. Deltas are computed AGM-style: walk the shorter of the two
  * semijoin lists at the arriving edge's endpoints and probe each closing
  * edge's multiplicity (worst-case O(N^{1/2}) per edge, O(N^{1.5}) total —
  * the fractional-hypertree-width cost the paper cites for w = 1.5 bags).
  */
final class TriangleNode(
    val ra: String, val rb: String, val rc: String,
    x: String, y: String, z: String,
) extends GhdNode {

  val output: RelSchema = RelSchema(s"tri_${ra}_${rb}_$rc", Vector(x, y, z))
  def inputs: Seq[String] = Seq(ra, rb, rc)

  private val dicts = mutable.Map.empty[Vector[String], KeyDict]
  private val stores = Array.tabulate(3)(i =>
    new RelationStore(RelSchema(inputs(i), Vector(output.attrs(i), output.attrs((i + 1) % 3)))))
  private val src = stores.map(s => s.ensureIndex(s.schema.attrs.take(1), dicts))
  private val dst = stores.map(s => s.ensureIndex(s.schema.attrs.drop(1), dicts))
  private val edge = stores.map(s => s.ensureIndex(s.schema.attrs, dicts))

  /** The closing edge being probed, laid out as a tuple of its relation. */
  private val probe = new Array[Long](2)
  private val both = Array(0, 1)

  /** Edge `(u, v)` of `rel` closes a triangle with each `(v, w)` of `b = rel+1`
    * and `(w, u)` of `c = rel+2`, the row with `u, v, w` at `rel, b, c`. On a
    * tie in list length the lower-indexed relation's list is walked.
    */
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit = {
    val id = stores(rel).insert(values)
    val (b, c) = ((rel + 1) % 3, (rel + 2) % 3)
    val (kb, kc) = (dst(rel).keyOf(id), src(rel).keyOf(id))
    val (nb, nc) = (src(b).ids.length(kb), dst(c).ids.length(kc))
    val walkB = nb < nc || (nb == nc && b < c)
    val n = math.min(nb, nc)
    if (n == 0) return
    val at = if (walkB) 1 else 0 // w's position in the walked edges, 1 - at in the probed ones
    val list = if (walkB) src(b).ids(kb) else dst(c).ids(kc)
    val tuples = stores(if (walkB) b else c).tuples
    val closing = edge(if (walkB) c else b)
    probe(at) = values(1 - at) // u when walking b, v when walking c
    var j = 0
    while (j < n) {
      val w = tuples(list(j))(at)
      probe(1 - at) = w
      val k = closing.dict.find(probe, both)
      var m = if (k < 0) 0 else closing.ids.length(k)
      while (m > 0) {
        val row = new Array[Long](3)
        row(rel) = values(0); row(b) = values(1); row(c) = w
        out.emit(tag, row); m -= 1
      }
      j += 1
    }
  }

  /** Bytes of the stores and the dictionaries (see [[Bytes]]). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + dicts.valuesIterator.map(_.approxBytes).sum
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

  /** Each base relation's node, and its index among the node's inputs. */
  private val owner: Map[String, (Int, Int)] =
    ghdNodes.zipWithIndex.flatMap { case (nd, i) => nd.inputs.zipWithIndex.map { case (rel, r) => rel -> ((i, r)) } }.toMap

  /** Total sub-join delta tuples produced (size of the simulated stream). */
  var simulatedInserts: Long = 0L

  /** Inserts each delta tuple into its node's relation of the inner query. */
  private val forward = new RowSink {
    def emit(ni: Int, row: Array[Long]): Unit = { inner.insertAt(ni, row, sample = true); simulatedInserts += 1 }
  }

  def insert(rel: String, values: Array[Long]): Unit = {
    val (ni, r) = owner.getOrElse(rel, throw new IllegalArgumentException(s"unknown relation $rel"))
    ghdNodes(ni).insert(r, values, forward, ni)
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
