package repro.core

/** Receives rows one at a time, each tagged with the index of the relation
  * it belongs to. A row of values is the receiver's to keep; a member-id
  * vector (see [[CombinedStore]]) is its sender's scratch, valid until
  * `emit` returns.
  */
abstract class RowSink extends Serializable {
  def emit(rel: Int, row: Array[Long]): Unit
}

/** A bag of a [[Decomposition]]: owns some base relations and, on every
  * insert into one of them, produces the delta of its bag subquery `Q_u`
  * (Section 5). A foreign-key group (Section 4.4) is a bag too, whose
  * subquery is the group join.
  */
trait GhdNode extends Serializable {
  /** Output relation of this bag in the bag query. */
  def output: RelSchema
  /** The store of `output` that the inner engine keeps: the tuples `insert`
    * emits are tuples of it.
    */
  def store: RelationStore
  /** Base relations this bag consumes. */
  def inputs: Seq[String]
  /** Absorb one tuple of `inputs(rel)`; pass each delta tuple of `Q_u`
    * (a tuple of `store`, once per multiplicity) to `out`, tagged `tag`.
    */
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit
  def approxBytes: Long
}

/** Identity bag: a base relation covered by a bag of its own. */
final class EdgeNode(val schema: RelSchema) extends GhdNode {
  def output: RelSchema = schema
  val store: RelationStore = new ValueStore(schema)
  def inputs: Seq[String] = Seq(schema.name)
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit = out.emit(tag, values)
  def approxBytes: Long = 0L
}

/** How a base tuple becomes tuples of the bag query: each base relation is
  * routed to the bag that owns it, and the bag's delta rows are tuples of
  * relation `i` of `query` for bag `i`. The inner acyclic engine runs on
  * `query`, over `stores`.
  */
class Decomposition(name: String, nodes: Vector[GhdNode]) extends Serializable {

  /** The bag query: relation `i` is bag `i`'s output. */
  val query: JoinQuery = JoinQuery(name, nodes.map(_.output))

  /** The bags' output stores, by relation of `query`. */
  val stores: Vector[RelationStore] = nodes.map(_.store)

  /** Each base relation's bag, and its index among the bag's inputs. */
  private val owner: Map[String, (Int, Int)] =
    nodes.zipWithIndex.flatMap { case (nd, i) => nd.inputs.zipWithIndex.map { case (rel, r) => rel -> ((i, r)) } }.toMap

  /** Insert `values` into base relation `rel`, passing each resulting bag
    * tuple to `sink`, tagged with its bag's index.
    */
  def translate(rel: String, values: Array[Long], sink: RowSink): Unit = {
    val (i, r) = owner.getOrElse(rel, throw new IllegalArgumentException(s"unknown relation $rel in $name"))
    nodes(i).insert(r, values, sink, i)
  }

  /** Bytes held by the bags' own stores and dictionaries. */
  def approxBytes: Long = nodes.iterator.map(_.approxBytes).sum
}
