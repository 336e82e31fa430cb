package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import Proj.{JoinRow, Tup}

/** Exact delta-join enumeration for an acyclic query: on each insert,
  * materialize `ΔQ(R, t) = Q(R ∪ {t}) ⋉ t` by backtracking over the join
  * tree rooted at the inserted tuple's relation, using semijoin lists over
  * its own key dictionaries.
  *
  * This is deliberately simple and exact — it serves as (a) the brute-force
  * oracle the index tests compare against, and (b) the group joiner inside
  * the foreign-key combination optimization, where delta sizes are small by
  * construction (parent-direction lookups are unique under key constraints).
  */
final class DeltaEnumerator(val query: JoinQuery) extends Serializable {

  val stores: Vector[RelationStore] = query.relations.map(new RelationStore(_))

  private val unrootedEdges = JoinTree.unrooted(query).getOrElse(
    throw new IllegalArgumentException(s"DeltaEnumerator: ${query.name} is cyclic"))

  private val rootedTrees: Vector[RootedTree] =
    query.relations.indices.map(r => JoinTree.rooted(query, unrootedEdges, r)).toVector

  /** One dictionary per key attribute list, shared by the stores. */
  private val dicts = mutable.LinkedHashMap.empty[Vector[String], KeyDict]

  /** Insert without materializing the delta (cheap sync for huge steps). */
  def insertOnly(rel: String, values: Array[Long]): Unit = {
    stores(query.relIdx(rel)).insert(values)
  }

  /** Each relation's attribute slots among `query.attributes`. */
  private val slotsOf: Array[Array[Int]] =
    query.relations.map(r => r.attrs.map(query.attributes.indexOf).toArray).toArray

  /** Per rooted tree: its non-root relations in depth-first preorder (the
    * order in which `joinsOf` expands them), and the slots of each one's key.
    */
  private val visitOrder: Array[Array[Int]] = rootedTrees.map { tree =>
    def pre(v: Int): Vector[Int] = v +: tree.children(v).flatMap(pre)
    pre(tree.root).tail.toArray
  }.toArray
  private val keySlots: Array[Array[Array[Int]]] = rootedTrees.zip(visitOrder).map {
    case (tree, order) => order.map(c => tree.key(c).map(query.attributes.indexOf).toArray)
  }.toArray

  /** Per rooted tree, in the same order: the relation's index on its key,
    * through which it is matched.
    */
  private val keyIndex: Array[Array[KeyIndex]] = rootedTrees.zip(visitOrder).map {
    case (tree, order) => order.map(c => stores(c).ensureIndex(tree.key(c), dicts))
  }.toArray

  /** Insert `values` into `rel` and pass each result of the delta join to
    * `emit`, as values over the slots of `query.attributes`. The array is
    * overwritten once `emit` returns: `emit` must copy what it keeps.
    */
  def insertAndEmit(rel: String, values: Array[Long])(emit: Array[Long] => Unit): Unit = {
    val r = query.relIdx(rel)
    stores(r).insert(values)
    joinsOf(r, values, emit)
  }

  /** Insert `values` into `rel` and return the (materialized) delta join. */
  def insertAndDelta(rel: String, values: Array[Long]): ArrayBuffer[JoinRow] = {
    val out = new ArrayBuffer[JoinRow]
    insertAndEmit(rel, values)(out += rowOf(_))
    out
  }

  /** Current full join `Q(R)` via repeated delta accumulation is not stored;
    * recompute from scratch for small test instances.
    */
  def fullJoin(): ArrayBuffer[JoinRow] = {
    val out = new ArrayBuffer[JoinRow]
    for (t <- stores(0).tuples) joinsOf(0, t, out += rowOf(_))
    out
  }

  /** Bytes of the stores and the dictionaries (see [[Bytes]]). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + dicts.valuesIterator.map(_.approxBytes).sum

  private def rowOf(acc: Array[Long]): JoinRow = query.attributes.iterator.zip(acc.iterator).toMap

  /** Pass to `emit` every join result that contains tuple `t` of relation
    * `root`, by backtracking over the tree rooted there: each relation, in
    * preorder, is matched through the semijoin list of its key, whose values
    * its parent has already written into `acc` and which is looked up in
    * place there.
    */
  private def joinsOf(root: Int, t: Tup, emit: Array[Long] => Unit): Unit = {
    val order = visitOrder(root)
    val keys = keySlots(root)
    val index = keyIndex(root)
    val acc = new Array[Long](query.attributes.length)
    def put(rel: Int, t: Tup): Unit = {
      val slots = slotsOf(rel)
      var i = 0
      while (i < slots.length) { acc(slots(i)) = t(i); i += 1 }
    }
    def expand(d: Int): Unit =
      if (d == order.length) emit(acc)
      else {
        val c = order(d)
        val ix = index(d)
        val k = ix.dict.find(acc, keys(d))
        val n = if (k < 0) 0 else ix.ids.length(k)
        var i = 0
        while (i < n) {
          put(c, stores(c).tuples(ix.ids(k)(i)))
          expand(d + 1)
          i += 1
        }
      }
    put(root, t)
    expand(0)
  }
}
