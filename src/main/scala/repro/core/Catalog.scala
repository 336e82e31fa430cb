package repro.core

import scala.collection.mutable

/** Tuple/attribute plumbing shared by every engine.
  *
  * A tuple is an `Array[Long]` aligned with its relation's attribute order;
  * all synthetic data is integer-keyed, so `Long` covers every attribute.
  * A join result is an attribute→value map (natural-join semantics: shared
  * attribute names join, so a result is a single assignment over V).
  */
object Proj {
  type Tup = Array[Long]

  /** A join result. The engines' rows are [[IdRow]] views: one tuple id per
    * relation of the query the index runs on, over that engine's append-only
    * stores, read only when the row is looked at. They equal (and hash like)
    * plain maps with the same entries.
    */
  type JoinRow = Map[String, Long]
}

/** Schema of one relation: a name and an ordered list of attribute names. */
final case class RelSchema(name: String, attrs: Vector[String]) {
  require(attrs.distinct == attrs, s"duplicate attributes in $name: $attrs")
  @transient private lazy val pos: Map[String, Int] = attrs.zipWithIndex.toMap

  /** Positions of `sub` within this schema (all must be present). */
  def idxOf(sub: Seq[String]): Array[Int] = sub.map(pos).toArray
  def arity: Int = attrs.length
}

/** A multi-way natural join query (hypergraph Q = (V, E) of Section 2.1).
  * Relation names are unique; self-joins are expressed as distinct aliases
  * with renamed attributes, exactly as the paper streams one shuffled edge
  * copy per alias.
  */
final case class JoinQuery(name: String, relations: Vector[RelSchema]) {
  require(relations.map(_.name).distinct.size == relations.size,
    s"duplicate relation names in $name")
  @transient lazy val relIdx: Map[String, Int] = relations.map(_.name).zipWithIndex.toMap
  @transient lazy val attributes: Vector[String] = relations.flatMap(_.attrs).distinct
  def arity: Int = relations.size
}

/** A join tree rooted at `root`: parents, children, and the key attributes
  * `key(e) = e ∩ p_e` of Section 4.3 (empty for the root).
  */
final case class RootedTree(
    query: JoinQuery,
    root: Int,
    parent: Array[Int], // -1 for the root
    children: Array[Vector[Int]],
    key: Array[Vector[String]],
)

/** Join-tree construction and the acyclicity test.
  *
  * By the Bernstein–Goodman theorem, a query is α-acyclic iff a maximum-weight
  * spanning tree of its intersection graph (weights `|e ∩ e'|`) is a join tree,
  * i.e. satisfies the running-intersection property. We build the MST with
  * Kruskal (zero-weight edges included, so cross products connect) and then
  * verify the property explicitly.
  */
object JoinTree {

  /** Undirected join-tree edges, or None if the query is cyclic. */
  def unrooted(q: JoinQuery): Option[Vector[(Int, Int)]] = {
    val n = q.arity
    if (n == 1) return Some(Vector.empty)
    val cand = for {
      i <- 0 until n; j <- i + 1 until n
    } yield (q.relations(i).attrs.toSet.intersect(q.relations(j).attrs.toSet).size, i, j)
    val uf = Array.tabulate(n)(identity)
    def find(x: Int): Int = { var r = x; while (uf(r) != r) r = uf(r); uf(x) = r; r }
    val edges = Vector.newBuilder[(Int, Int)]
    for ((_, i, j) <- cand.sortBy(-_._1)) {
      val (ri, rj) = (find(i), find(j))
      if (ri != rj) { uf(ri) = rj; edges += ((i, j)) }
    }
    val es = edges.result()
    if (runningIntersection(q, es)) Some(es) else None
  }

  def isAcyclic(q: JoinQuery): Boolean = unrooted(q).isDefined

  /** For every attribute, the nodes containing it must be connected. */
  private def runningIntersection(q: JoinQuery, edges: Vector[(Int, Int)]): Boolean = {
    val n = q.arity
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    for ((i, j) <- edges) { adj(i) += j; adj(j) += i }
    q.attributes.forall { a =>
      val members = (0 until n).filter(q.relations(_).attrs.contains(a)).toSet
      if (members.size <= 1) true
      else {
        val seen = mutable.Set(members.head)
        val stack = mutable.Stack(members.head)
        while (stack.nonEmpty) {
          val u = stack.pop()
          for (v <- adj(u) if members.contains(v) && !seen.contains(v)) {
            seen += v; stack.push(v)
          }
        }
        seen.size == members.size
      }
    }
  }

  /** Root the unrooted tree at `root` (BFS orientation). */
  def rooted(q: JoinQuery, edges: Vector[(Int, Int)], root: Int): RootedTree = {
    val n = q.arity
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    for ((i, j) <- edges) { adj(i) += j; adj(j) += i }
    val parent = Array.fill(n)(-1)
    val order = mutable.ArrayBuffer(root)
    val seen = mutable.Set(root)
    var h = 0
    while (h < order.length) {
      val u = order(h); h += 1
      for (v <- adj(u) if !seen.contains(v)) { seen += v; parent(v) = u; order += v }
    }
    require(seen.size == n, s"join tree disconnected for ${q.name}")
    val children = Array.fill(n)(Vector.empty[Int])
    for (v <- 0 until n if v != root) children(parent(v)) :+= v
    val key = Array.tabulate(n) { v =>
      if (v == root) Vector.empty[String]
      else {
        val pAttrs = q.relations(parent(v)).attrs.toSet
        q.relations(v).attrs.filter(pAttrs.contains)
      }
    }
    RootedTree(q, root, parent, children, key)
  }
}
