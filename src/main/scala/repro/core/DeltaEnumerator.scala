package repro.core

import scala.collection.mutable
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

  /** Insert `values` into `rel` and return the (materialized) delta join. */
  def insertAndDelta(rel: String, values: Array[Long]): ArrayBuffer[JoinRow] = {
    val r = query.relIdx(rel)
    stores(r).insert(values)
    val out = new ArrayBuffer[JoinRow]
    joinsOf(rootedTrees(r), values, out)
    out
  }

  /** Current full join `Q(R)` via repeated delta accumulation is not stored;
    * recompute from scratch for small test instances.
    */
  def fullJoin(): ArrayBuffer[JoinRow] = {
    val out = new ArrayBuffer[JoinRow]
    val tree = rootedTrees(0)
    for (t <- stores(tree.root).tuples) joinsOf(tree, t, out)
    out
  }

  /** Append to `out` every join result that contains tuple `t` of `tree`'s
    * root relation, by backtracking over the tree: children are expanded
    * depth-first through hash semijoin lookups.
    */
  private def joinsOf(tree: RootedTree, t: Tup, out: ArrayBuffer[JoinRow]): Unit = {
    val acc = mutable.HashMap.empty[String, Long]
    def putAttrs(s: RelSchema, t: Tup): Unit = {
      var i = 0
      while (i < s.arity) { acc(s.attrs(i)) = t(i); i += 1 }
    }
    def expand(pending: List[Int]): Unit = pending match {
      case Nil => out += acc.toMap
      case relC :: rest =>
        val schemaC = query.relations(relC)
        val keyAttrs = tree.key(relC)
        val keyVals = Proj.key(
          keyAttrs.map(a => acc(a)).toArray, Array.tabulate(keyAttrs.length)(identity))
        val matches = stores(relC).lookup(keyAttrs, keyVals)
        var i = 0
        while (i < matches.length) {
          putAttrs(schemaC, stores(relC).tuples(matches(i)))
          expand(tree.children(relC).toList ::: rest)
          i += 1
        }
    }
    putAttrs(query.relations(tree.root), t)
    expand(tree.children(tree.root).toList)
  }
}
