package repro.core

import scala.collection.mutable.ArrayBuffer

import Proj.{JoinRow, Tup}

/** Exact delta-join enumeration for an acyclic query: on each insert,
  * materialize `ΔQ(R, t) = Q(R ∪ {t}) ⋉ t` by backtracking over the join
  * tree rooted at the inserted tuple's relation, using hash semijoin lists.
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

  // Every tree needs child-lookup indexes: for tree rooted at r, matching
  // tuples of child c are found by key(c) in store(c).
  for (t <- rootedTrees; rel <- query.relations.indices if rel != t.root)
    stores(rel).ensureIndex(t.key(rel))

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

  private def rowOf(acc: Array[Long]): JoinRow = query.attributes.iterator.zip(acc.iterator).toMap

  /** Pass to `emit` every join result that contains tuple `t` of relation
    * `root`, by backtracking over the tree rooted there: each relation, in
    * preorder, is matched through a hash semijoin lookup on its key, whose
    * values its parent has already written into `acc`.
    */
  private def joinsOf(root: Int, t: Tup, emit: Array[Long] => Unit): Unit = {
    val tree = rootedTrees(root)
    val order = visitOrder(root)
    val keys = keySlots(root)
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
        val matches = stores(c).lookup(tree.key(c), Proj.key(acc, keys(d)))
        var i = 0
        while (i < matches.length) {
          put(c, stores(c).tuples(matches(i)))
          expand(d + 1)
          i += 1
        }
      }
    put(root, t)
    expand(0)
  }
}
