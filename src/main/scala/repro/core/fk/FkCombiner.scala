package repro.core.fk

import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.core.cyclic.GhdEngine

/** A foreign-key constraint: every `childRel` tuple references at most one
  * `parentRel` tuple via `keyAttrs`, which form the primary key of
  * `parentRel` (Section 4.4, "Foreign-keys").
  */
final case class FkSpec(childRel: String, keyAttrs: Vector[String], parentRel: String)

/** Foreign-key combination (the `_opt` engines) as a [[Decomposition]]:
  * relations connected by FK constraints are collapsed into one combined
  * relation, the output of a bag per group. A one-relation group is an
  * [[EdgeNode]]; a larger one is a [[DeltaEnumerator]] over the group
  * subquery, whose delta rows are the combined tuples to feed into the inner
  * engine: member-id vectors, which its [[CombinedStore]] keeps and reads
  * through the group's member stores. Late-arriving dimension tuples
  * correctly release all waiting fact tuples.
  *
  * It rejects, with an `IllegalArgumentException` naming the spec, an
  * [[FkSpec]] that names an unknown relation or whose `keyAttrs` are not
  * exactly the attributes its child and parent share. Each group's bag gets
  * the group's specs, so it refuses a parent tuple whose primary key is
  * already present (see [[DeltaEnumerator]]).
  *
  * @param groups member relation indices per group, in original order
  */
final class FkCombiner private (baseQuery: JoinQuery, fks: Seq[FkSpec], val groups: Vector[Vector[Int]])
    extends Decomposition(baseQuery.name + "_fk", groups.map { g =>
      val members = g.map(baseQuery.relations(_))
      if (g.size == 1) new EdgeNode(members.head)
      else new DeltaEnumerator(JoinQuery(members.map(_.name).mkString("+"), members),
        fks.filter(fk => members.exists(_.name == fk.childRel)))
    }) {

  def this(baseQuery: JoinQuery, fks: Seq[FkSpec]) = this(baseQuery, fks, FkCombiner.groups(baseQuery, fks))

  /** The rewritten (combined) query the inner engine runs on: relation `gi`
    * combines group `gi`.
    */
  def combinedQuery: JoinQuery = query

  /** [[translate]] by relation name, collecting the combined inserts, for
    * the benchmark's traced replay. A combined tuple of a larger group is its
    * member-id vector (see [[CombinedStore]]), which the replay passes on to
    * the inner engine's store of that group; the emitted scratch vector is
    * cloned here. It returns member-id vectors for as long as the replay
    * drives the inner stores itself, in place of metrics inside the engines.
    */
  def translate(rel: String, values: Array[Long]): ArrayBuffer[(String, Array[Long])] = {
    val out = new ArrayBuffer[(String, Array[Long])](1)
    translate(rel, values, new RowSink {
      def emit(gi: Int, row: Array[Long]): Unit = out += ((query.relations(gi).name, row.clone()))
    })
    out
  }
}

object FkCombiner {

  /** The connected components of the FK graph of `fks` over `q`, as member
    * relation indices in original order, after checking each spec.
    */
  private def groups(q: JoinQuery, fks: Seq[FkSpec]): Vector[Vector[Int]] = {
    val relIdx = q.relIdx
    for (fk <- fks) {
      def reject(why: String) = throw new IllegalArgumentException(s"$fk in ${q.name}: $why")
      for (rel <- Seq(fk.childRel, fk.parentRel) if !relIdx.contains(rel)) reject(s"unknown relation $rel")
      val shared = q.shared(relIdx(fk.childRel), relIdx(fk.parentRel))
      if (fk.keyAttrs.sorted != shared.sorted)
        reject(s"keyAttrs must be the attributes ${fk.childRel} and ${fk.parentRel} share, ${shared.mkString("(", ", ", ")")}")
    }
    val uf = Array.tabulate(q.arity)(identity)
    def find(x: Int): Int = { var r = x; while (uf(r) != r) r = uf(r); uf(x) = r; r }
    for (fk <- fks) {
      val (a, b) = (find(relIdx(fk.childRel)), find(relIdx(fk.parentRel)))
      if (a != b) uf(a) = b
    }
    q.relations.indices.groupBy(find).values.map(_.toVector.sorted).toVector.sortBy(_.head)
  }
}

/** An RSJoin or SJoin engine behind foreign-key combination: a [[GhdEngine]]
  * over `combiner`, which the benchmark's traced replay reads.
  */
final class FkEngine(val combiner: FkCombiner, inner: ReservoirJoinEngine) extends GhdEngine(combiner, inner)

object FkEngine {
  /** RSJoin_opt: FK combination in front of RSJoin (optionally grouped). */
  def rs(query: JoinQuery, fks: Seq[FkSpec], k: Int, seed: Long,
         grouping: Boolean = false, trackFullJoin: Boolean = true): FkEngine = {
    val comb = new FkCombiner(query, fks)
    new FkEngine(comb,
      new ReservoirJoinEngine(comb.combinedQuery, k, seed, grouping, trackFullJoin, CountPolicy.Pow2, comb.stores))
  }

  /** SJoin_opt: FK combination in front of the SJoin baseline. */
  def sj(query: JoinQuery, fks: Seq[FkSpec], k: Int, seed: Long,
         trackFullJoin: Boolean = true): FkEngine = {
    val comb = new FkCombiner(query, fks)
    new FkEngine(comb,
      new repro.core.baseline.SJoinEngine(comb.combinedQuery, k, seed, trackFullJoin, comb.stores))
  }
}
