package rsjbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core.JoinQuery
import repro.core.Proj.JoinRow

/** Exact join sizes, computed independently of the engines. */
object JoinSize {

  /** Number of k-edge walks in the directed graph `edges`: `|Q|` of line-k
    * once every alias has streamed the whole edge list. O(k·m) dynamic
    * programme over walks ending at each node.
    */
  def walks(edges: Seq[(Long, Long)], k: Int): Long = {
    require(k >= 1, s"walk length $k")
    var ending = mutable.HashMap.empty[Long, Long]
    for ((_, v) <- edges) ending(v) = ending.getOrElse(v, 0L) + 1
    for (_ <- 2 to k) {
      val next = mutable.HashMap.empty[Long, Long]
      for ((u, v) <- edges) {
        val c = ending.getOrElse(u, 0L)
        if (c != 0) next(v) = Math.addExact(next.getOrElse(v, 0L), c)
      }
      ending = next
    }
    ending.valuesIterator.foldLeft(0L)(Math.addExact)
  }

  /** `|Q|` of an acyclic natural join over `tuples`, given a join tree as
    * undirected edges between relation indices: counts flow from the leaves
    * to relation 0, keyed by the attributes each child shares with its parent.
    */
  def tree(q: JoinQuery, tuples: Seq[(String, Array[Long])], edges: Seq[(Int, Int)]): Long = {
    val rows = Array.fill(q.arity)(ArrayBuffer.empty[Array[Long]])
    for ((rel, t) <- tuples) rows(q.relIdx(rel)) += t
    val adj = Array.fill(q.arity)(ArrayBuffer.empty[Int])
    for ((a, b) <- edges) { adj(a) += b; adj(b) += a }
    def shared(child: Int, parent: Int): Vector[String] =
      q.relations(child).attrs.filter(q.relations(parent).attrs.contains)
    def proj(rel: Int, attrs: Vector[String], t: Array[Long]): Vector[Long] =
      q.relations(rel).idxOf(attrs).toVector.map(t(_))
    // Σ over `node`'s tuples of Π child counts, grouped by the key shared
    // with `parent` (the empty key at the root).
    def up(node: Int, parent: Int): Map[Vector[Long], Long] = {
      val kids = adj(node).filter(_ != parent).toVector
      val msgs = kids.map(c => (shared(c, node), up(c, node)))
      val key = if (parent < 0) Vector.empty[String] else shared(node, parent)
      val out = mutable.HashMap.empty[Vector[Long], Long]
      for (t <- rows(node)) {
        var w = 1L
        for ((attrs, m) <- msgs) w = Math.multiplyExact(w, m.getOrElse(proj(node, attrs, t), 0L))
        val kv = proj(node, key, t)
        out(kv) = Math.addExact(out.getOrElse(kv, 0L), w)
      }
      out.toMap
    }
    up(0, -1).getOrElse(Vector.empty, 0L)
  }
}

/** Membership test of sampled rows against the input relations. */
final class JoinCheck(q: JoinQuery, tuples: Seq[(String, Array[Long])]) {
  private val attrs = q.attributes.toSet
  private val inputs = Array.fill(q.arity)(mutable.HashSet.empty[Vector[Long]])
  private val counts = new Array[Int](q.arity)
  for ((rel, t) <- tuples) {
    val r = q.relIdx(rel)
    inputs(r) += t.toVector
    counts(r) += 1
  }

  /** Every relation received distinct tuples, so join results are distinct. */
  val setSemantics: Boolean = q.relations.indices.forall(r => inputs(r).size == counts(r))

  /** `row` assigns exactly the query's attributes, and each relation's
    * projection of it is one of that relation's input tuples.
    */
  def isResult(row: JoinRow): Boolean =
    row.keySet == attrs && q.relations.indices.forall { r =>
      inputs(r).contains(q.relations(r).attrs.map(row))
    }
}

/** Output checks of one run; each one counts as an attempted operation. */
final class Checks {
  val results = ArrayBuffer.empty[(String, Boolean, String)]

  def add(name: String, ok: Boolean, detail: => String = ""): Unit =
    results += ((name, ok, if (ok) "" else detail))

  def failed: Int = results.count(!_._2)

  /** The checks every final sample must pass. */
  def sample(label: String, q: JoinQuery, tuples: Seq[(String, Array[Long])], k: Int,
             joinSize: Long, rows: Seq[JoinRow]): Unit = {
    val jc = new JoinCheck(q, tuples)
    val bad = rows.count(r => !jc.isResult(r))
    add(s"$label: every sampled row is a join result", bad == 0,
      s"$bad of ${rows.size} rows are not")
    val want = math.min(k.toLong, joinSize)
    add(s"$label: |sample| = min(k, |Q|) = $want", rows.size.toLong == want,
      s"|sample| = ${rows.size}, k = $k, |Q| = $joinSize")
    if (jc.setSemantics)
      add(s"$label: sample has no repeated row", rows.distinct.size == rows.size,
        s"${rows.size - rows.distinct.size} repeats")
  }
}
