package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import Proj.JoinRow

/** Exact delta-join enumeration for an acyclic query: on each insert,
  * materialize `ΔQ(R, t) = Q(R ∪ {t}) ⋉ t` by backtracking over the join
  * tree rooted at the inserted tuple's relation, using semijoin lists over
  * its own key dictionaries.
  *
  * This is deliberately simple and exact — it serves as (a) the brute-force
  * oracle the index tests compare against, and (b) the bag of a foreign-key
  * group in the foreign-key combination optimization, where delta sizes are
  * small by construction (parent-direction lookups are unique under key
  * constraints). As a bag, its output is `query.attributes`.
  */
final class DeltaEnumerator(val query: JoinQuery) extends GhdNode {

  val output: RelSchema = RelSchema(query.name, query.attributes)
  def inputs: Seq[String] = query.relations.map(_.name)

  val stores: Vector[RelationStore] = query.relations.map(new RelationStore(_))

  private val unrootedEdges = JoinTree.unrooted(query).getOrElse(
    throw new IllegalArgumentException(s"DeltaEnumerator: ${query.name} is cyclic"))

  /** One dictionary per key attribute list, shared by the stores. */
  private val dicts = mutable.LinkedHashMap.empty[Vector[String], KeyDict]

  /** Insert without materializing the delta (cheap sync for huge steps). */
  def insertOnly(rel: String, values: Array[Long]): Unit = {
    stores(query.relIdx(rel)).insert(values)
  }

  /** Per rooted tree: its non-root relations in depth-first preorder (the
    * order in which `expand` matches them), each one's parent, and both
    * relations' indexes on the key of the edge between them. The key is in
    * query-attribute order (`JoinQuery.shared`), so both indexes share one
    * dictionary, a parent tuple's key id names the child's semijoin list,
    * and the trees rooted on either side of an edge share its two indexes.
    */
  private val visitOrder: Array[Array[Int]] = new Array(query.arity)
  private val parentOf: Array[Array[Int]] = new Array(query.arity)
  private val parentIx: Array[Array[KeyIndex]] = new Array(query.arity)
  private val childIx: Array[Array[KeyIndex]] = new Array(query.arity)

  for (r <- query.relations.indices) {
    val tree = JoinTree.rooted(query, unrootedEdges, r)
    def pre(v: Int): Vector[Int] = v +: tree.children(v).flatMap(pre)
    val order = pre(r).tail.toArray
    visitOrder(r) = order
    parentOf(r) = order.map(tree.parent)
    parentIx(r) = order.map(c => stores(tree.parent(c)).ensureIndex(tree.key(c), dicts))
    childIx(r) = order.map(c => stores(c).ensureIndex(tree.key(c), dicts))
  }

  /** Each relation's share of a result row: the attributes it is the first
    * relation to hold, as positions in its tuples and as slots among
    * `query.attributes`.
    */
  private val ownAttrs: Vector[Vector[String]] = {
    val seen = mutable.Set.empty[String]
    query.relations.map(_.attrs.filter(seen.add))
  }
  private val ownPos: Array[Array[Int]] = query.relations.zip(ownAttrs).map { case (s, own) => s.idxOf(own) }.toArray
  private val ownSlots: Array[Array[Int]] = ownAttrs.map(_.map(query.attributes.indexOf).toArray).toArray

  /** `expand`'s scratch: the tuple id matched in each relation so far. */
  private val ids = new Array[Int](query.arity)

  /** Insert `values` into relation `rel` and pass each result of the delta
    * join to `out`, tagged `tag`, as a new array of values over the slots of
    * `query.attributes`.
    */
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit = {
    ids(rel) = stores(rel).insert(values)
    expand(rel, 0, out, tag)
  }

  /** Insert `values` into `rel` and return the (materialized) delta join. */
  def insertAndDelta(rel: String, values: Array[Long]): ArrayBuffer[JoinRow] = {
    val out = new Rows
    insert(query.relIdx(rel), values, out, 0)
    out.rows
  }

  /** Current full join `Q(R)` via repeated delta accumulation is not stored;
    * recompute from scratch for small test instances.
    */
  def fullJoin(): ArrayBuffer[JoinRow] = {
    val out = new Rows
    for (id <- 0 until stores(0).size) { ids(0) = id; expand(0, 0, out, 0) }
    out.rows
  }

  /** Bytes of the stores and the dictionaries (see [[Bytes]]). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + dicts.valuesIterator.map(_.approxBytes).sum

  /** Collects rows as `Map`s, for the tests' oracle. */
  private final class Rows extends RowSink {
    val rows = new ArrayBuffer[JoinRow]
    def emit(rel: Int, row: Array[Long]): Unit = rows += query.attributes.iterator.zip(row.iterator).toMap
  }

  /** Match the `d`-th relation of `root`'s preorder, and those after it,
    * through the semijoin list its parent's tuple names by key id; past the
    * last one, emit the row of the tuples in `ids`.
    */
  private def expand(root: Int, d: Int, out: RowSink, tag: Int): Unit = {
    val order = visitOrder(root)
    if (d == order.length) out.emit(tag, row())
    else {
      val c = order(d)
      val k = parentIx(root)(d).keyOf(ids(parentOf(root)(d)))
      val lists = childIx(root)(d).ids
      val n = lists.length(k)
      if (n > 0) {
        val list = lists(k)
        var i = 0
        while (i < n) {
          ids(c) = list(i)
          expand(root, d + 1, out, tag)
          i += 1
        }
      }
    }
  }

  /** The values of the tuples in `ids`, each attribute written once. */
  private def row(): Array[Long] = {
    val row = new Array[Long](query.attributes.length)
    var r = 0
    while (r < ids.length) {
      val t = stores(r).tuples(ids(r))
      val pos = ownPos(r)
      val slots = ownSlots(r)
      var i = 0
      while (i < pos.length) { row(slots(i)) = t(pos(i)); i += 1 }
      r += 1
    }
    row
  }
}
