package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import Proj.JoinRow
import repro.core.fk.FkSpec

/** Exact delta-join enumeration for an acyclic query: on each insert,
  * materialize `ΔQ(R, t) = Q(R ∪ {t}) ⋉ t` by backtracking over the join
  * tree rooted at the inserted tuple's relation, using semijoin lists over
  * its own key dictionaries.
  *
  * This is deliberately simple and exact — it serves as (a) the brute-force
  * oracle the index tests compare against, and (b) the bag of a foreign-key
  * group in the foreign-key combination optimization, where delta sizes are
  * small by construction (parent-direction lookups are unique under key
  * constraints). As a bag, its output relation is over `query.attributes`,
  * kept in a [[CombinedStore]]: it emits each result as its member-id vector,
  * the id of the tuple it joins in each relation of `query`.
  *
  * The group's foreign keys `fks` make it key-aware. A relation whose key on
  * a join-tree edge is a primary key that `fks` declare keeps, in place of
  * that edge's semijoin lists, a flat key-id → tuple-id array, and a tuple
  * whose key it already holds is an `IllegalArgumentException` naming the
  * spec and the key, thrown before anything changes. On the other side of
  * edge `e`, a tuple is listed only while the far side of `e` is incomplete
  * for it: complete means that every edge beyond `e` leads to a primary-key
  * side and every lookup hits, so a later match would repeat a key. A far
  * side with a many side (a shared parent, an edge with no foreign key)
  * keeps every tuple listed. Without `fks` every side is listed in full.
  */
final class DeltaEnumerator(val query: JoinQuery, fks: Seq[FkSpec] = Nil) extends GhdNode {

  val output: RelSchema = RelSchema(query.name, query.attributes)
  def inputs: Seq[String] = query.relations.map(_.name)

  val stores: Vector[ValueStore] = query.relations.map(new ValueStore(_))

  private val layout = new RowLayout(query, stores)
  val store: RelationStore = new CombinedStore(output, layout)

  private val unrootedEdges = JoinTree.unrooted(query).getOrElse(
    throw new IllegalArgumentException(s"DeltaEnumerator: ${query.name} is cyclic"))

  /** One dictionary per key attribute list, shared by the stores. */
  private val dicts = mutable.LinkedHashMap.empty[Vector[String], KeyDict]

  /** The primary keys `fks` declare, as (relation, key attributes), and the
    * spec that declares each.
    */
  private val primary: Map[(Int, Set[String]), FkSpec] =
    fks.map(fk => (query.indexOf(fk.parentRel), fk.keyAttrs.toSet) -> fk).toMap

  private val nbrs: Vector[Vector[Int]] =
    query.relations.indices.map(r => unrootedEdges.collect { case (`r`, b) => b; case (a, `r`) => a }).toVector

  /** Whether every edge from `r` through `n` and beyond, away from `r`,
    * leads to a primary-key side.
    */
  private def keyedAway(r: Int, n: Int): Boolean =
    primary.contains((n, query.shared(r, n).toSet)) && nbrs(n).forall(m => m == r || keyedAway(n, m))

  /** Relation `r`'s index on `attrs`: `Unique` on a primary key; `Owner`
    * (listed by [[listPending]]) when each edge of `r` with that key is
    * keyed away from `r`; else `All`.
    */
  private def index(r: Int, attrs: Vector[String]): KeyIndex = {
    val listing =
      if (primary.contains((r, attrs.toSet))) KeyIndex.Unique
      else if (nbrs(r).forall(n => query.shared(r, n) != attrs || keyedAway(r, n))) KeyIndex.Owner
      else KeyIndex.All
    stores(r).ensureIndex(attrs, dicts, listing)
  }

  /** The directed join-tree edges `r → n`; for each, `r`'s and `n`'s
    * indexes on its key and the edges `n → m` beyond it (`m ≠ r`).
    */
  private val directed: Vector[(Int, Int)] = for (r <- query.relations.indices.toVector; n <- nbrs(r)) yield (r, n)
  private val nearIx: Array[KeyIndex] = directed.map { case (r, n) => index(r, query.shared(r, n)) }.toArray
  private val farIx: Array[KeyIndex] = directed.map { case (r, n) => index(n, query.shared(r, n)) }.toArray
  private val beyond: Array[Array[Int]] =
    directed.map { case (r, n) => nbrs(n).filter(_ != r).map(m => directed.indexOf((n, m))).toArray }.toArray

  /** Per relation: its `Owner` indexes, with the edges from it that use
    * each, and its primary-key indexes.
    */
  private val pendingIx: Array[Array[KeyIndex]] = new Array(query.arity)
  private val pendingEdges: Array[Array[Array[Int]]] = new Array(query.arity)
  private val keyIx: Array[Array[KeyIndex]] = new Array(query.arity)

  for (r <- query.relations.indices) {
    val from = directed.indices.filter(directed(_)._1 == r)
    val owned = from.map(nearIx).filter(_.listing == KeyIndex.Owner).distinct
    pendingIx(r) = owned.toArray
    pendingEdges(r) = owned.map(ix => from.filter(nearIx(_) eq ix).toArray).toArray
    keyIx(r) = from.map(nearIx).filter(_.listing == KeyIndex.Unique).distinct.toArray
  }

  /** Insert without materializing the delta (cheap sync for huge steps). */
  def insertOnly(rel: String, values: Array[Long]): Unit = add(query.relIdx(rel), values)

  /** Per rooted tree: its non-root relations in depth-first preorder (the
    * order in which `expand` matches them), each one's parent, and both
    * relations' indexes on the key of the edge between them. The key is in
    * query-attribute order (`JoinQuery.shared`), so both indexes share one
    * dictionary, a parent tuple's key id names the child's semijoin list (or
    * its one tuple), and the trees rooted on either side of an edge share
    * its two indexes.
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
    val up = order.map(c => directed.indexOf((c, tree.parent(c))))
    parentIx(r) = up.map(farIx)
    childIx(r) = up.map(nearIx)
  }

  /** `expand`'s scratch: the tuple id matched in each relation so far,
    * and at the end of a match the member-id vector it emits.
    */
  private val ids = new Array[Long](query.arity)

  /** Insert `values` into relation `rel` and pass each result of the delta
    * join to `out`, tagged `tag`, as the member-id vector in `ids`.
    */
  def insert(rel: Int, values: Array[Long], out: RowSink, tag: Int): Unit = {
    ids(rel) = add(rel, values)
    expand(rel, 0, out, tag)
  }

  /** Refuse `values` if it repeats a primary key of `rel`; else store it,
    * list it where it is pending, and return its tuple id.
    */
  private def add(rel: Int, values: Array[Long]): Int = {
    stores(rel).requireArity(values)
    val keys = keyIx(rel)
    var i = 0
    while (i < keys.length) {
      if (keys(i).holderOf(values) >= 0)
        throw new IllegalArgumentException(s"${primary((rel, keys(i).attrs.toSet))}: " +
          s"${query.relations(rel).name} already holds key ${keys(i).show(values)}")
      i += 1
    }
    val id = stores(rel).insert(values)
    listPending(rel, id)
    id
  }

  /** List tuple `t` of `rel` in each `Owner` index for which the far side of
    * one of its edges is incomplete.
    */
  private def listPending(rel: Int, t: Int): Unit = {
    val ixs = pendingIx(rel)
    var i = 0
    while (i < ixs.length) {
      val es = pendingEdges(rel)(i)
      var j = 0
      while (j < es.length && complete(es(j), t)) j += 1
      if (j < es.length) ixs(i).ids.add(ixs(i).keyOf(t), t)
      i += 1
    }
  }

  /** Whether tuple `t` of edge `e`'s near side finds a tuple across `e`
    * by key, and that tuple is complete across every edge beyond `e`.
    */
  private def complete(e: Int, t: Int): Boolean = {
    val u = farIx(e).tupleOf(nearIx(e).keyOf(t))
    if (u < 0) false
    else {
      val next = beyond(e)
      var i = 0
      while (i < next.length && complete(next(i), u)) i += 1
      i == next.length
    }
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
    require(pendingIx.forall(_.isEmpty), s"${query.name}: fullJoin needs every semijoin list in full, so no foreign keys")
    val out = new Rows
    for (id <- 0 until stores(0).size) { ids(0) = id; expand(0, 0, out, 0) }
    out.rows
  }

  /** Bytes of the stores and the dictionaries (see [[Bytes]]). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + dicts.valuesIterator.map(_.approxBytes).sum

  /** Collects rows, read through the member stores, for the tests' oracle. */
  private final class Rows extends RowSink {
    val rows = new ArrayBuffer[JoinRow]
    def emit(rel: Int, row: Array[Long]): Unit = rows += new IdRow(layout, row.map(_.toInt))
  }

  /** Match the `d`-th relation of `root`'s preorder, and those after it,
    * through the semijoin list (or the one tuple) its parent's tuple names by
    * key id; past the last one, emit `ids`.
    */
  private def expand(root: Int, d: Int, out: RowSink, tag: Int): Unit = {
    val order = visitOrder(root)
    if (d == order.length) out.emit(tag, ids)
    else {
      val c = order(d)
      val k = parentIx(root)(d).keyOf(ids(parentOf(root)(d)).toInt)
      val ix = childIx(root)(d)
      if (ix.listing == KeyIndex.Unique) {
        val t = ix.tupleOf(k)
        if (t >= 0) { ids(c) = t; expand(root, d + 1, out, tag) }
      } else {
        val n = ix.ids.length(k)
        if (n > 0) {
          val list = ix.ids(k)
          var i = 0
          while (i < n) {
            ids(c) = list(i)
            expand(root, d + 1, out, tag)
            i += 1
          }
        }
      }
    }
  }
}
