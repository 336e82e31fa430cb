package repro.core.fk

import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.core.Proj.JoinRow

/** A foreign-key constraint: every `childRel` tuple references at most one
  * `parentRel` tuple via `keyAttrs`, which form the primary key of
  * `parentRel` (Section 4.4, "Foreign-keys").
  */
final case class FkSpec(childRel: String, keyAttrs: Vector[String], parentRel: String)

/** Foreign-key combination (the `_opt` engines): relations connected by FK
  * constraints are collapsed into one combined relation, maintained
  * incrementally — when a tuple of any member arrives, the delta of the
  * group join (computed by a [[DeltaEnumerator]] over the group subquery)
  * yields the combined tuples to feed into the inner engine. Late-arriving
  * dimension tuples correctly release all waiting fact tuples.
  *
  * It rejects, with an `IllegalArgumentException` naming the spec, an
  * [[FkSpec]] that names an unknown relation or whose `keyAttrs` are not
  * exactly the attributes its child and parent share.
  */
final class FkCombiner(val baseQuery: JoinQuery, fks: Seq[FkSpec]) extends Serializable {

  private val relIdx = baseQuery.relIdx

  for (fk <- fks) {
    def reject(why: String) = throw new IllegalArgumentException(s"$fk in ${baseQuery.name}: $why")
    for (rel <- Seq(fk.childRel, fk.parentRel) if !relIdx.contains(rel)) reject(s"unknown relation $rel")
    val shared = baseQuery.shared(relIdx(fk.childRel), relIdx(fk.parentRel))
    if (fk.keyAttrs.sorted != shared.sorted)
      reject(s"keyAttrs must be the attributes ${fk.childRel} and ${fk.parentRel} share, ${shared.mkString("(", ", ", ")")}")
  }

  // Connected components of the FK graph.
  private val uf = Array.tabulate(baseQuery.arity)(identity)
  private def find(x: Int): Int = { var r = x; while (uf(r) != r) r = uf(r); uf(x) = r; r }
  for (fk <- fks) {
    val (a, b) = (find(relIdx(fk.childRel)), find(relIdx(fk.parentRel)))
    if (a != b) uf(a) = b
  }

  /** Member relation indices per group, in original order. */
  val groups: Vector[Vector[Int]] = baseQuery.relations.indices
    .groupBy(find).values.map(_.toVector.sorted).toVector.sortBy(_.head)

  private def combinedSchema(g: Vector[Int]): RelSchema = {
    if (g.size == 1) baseQuery.relations(g.head)
    else {
      val name = g.map(baseQuery.relations(_).name).mkString("+")
      val attrs = g.flatMap(baseQuery.relations(_).attrs).distinct
      RelSchema(name, attrs)
    }
  }

  /** The rewritten (combined) query the inner engine runs on: relation `gi`
    * combines group `gi`.
    */
  val combinedQuery: JoinQuery =
    JoinQuery(baseQuery.name + "_fk", groups.map(combinedSchema))

  /** Each base relation's group, and its index in the group's subquery. */
  private val groupOf = new Array[Int](baseQuery.arity)
  private val memberOf = new Array[Int](baseQuery.arity)
  for ((g, gi) <- groups.zipWithIndex; (r, m) <- g.zipWithIndex) { groupOf(r) = gi; memberOf(r) = m }

  // One delta enumerator per multi-member group (over the group's subquery).
  private val enumerators: Vector[DeltaEnumerator] = groups.map { g =>
    if (g.size == 1) null
    else new DeltaEnumerator(JoinQuery("grp", g.map(baseQuery.relations(_))))
  }

  /** Translate one insert into base relation `r` into 0+ combined-relation
    * inserts, each handed to `out` as (combined relation index, values). The
    * combined schema's attributes are the group query's `attributes`, in the
    * same order, so a group join row is a combined tuple as it stands.
    */
  def translate(r: Int, values: Array[Long], out: RowSink): Unit = {
    val gi = groupOf(r)
    val e = enumerators(gi)
    if (e == null) out.emit(gi, values) else e.insertAndEmit(memberOf(r), values, out, gi)
  }

  /** [[translate]] by relation name, collecting the combined inserts. */
  def translate(rel: String, values: Array[Long]): ArrayBuffer[(String, Array[Long])] = {
    val out = new ArrayBuffer[(String, Array[Long])](1)
    translate(baseQuery.indexOf(rel), values, new RowSink {
      def emit(gi: Int, row: Array[Long]): Unit = out += ((combinedQuery.relations(gi).name, row))
    })
    out
  }

  /** Bytes held by the group joiners' stores and dictionaries. */
  def approxBytes: Long = enumerators.iterator.filter(_ != null).map(_.approxBytes).sum
}

/** An RSJoin or SJoin engine wrapped behind foreign-key combination. */
final class FkEngine(
    val combiner: FkCombiner,
    val inner: ReservoirJoinEngine,
) extends SamplingEngine {

  /** Hands each combined tuple to the inner engine, sampling its batch or not. */
  private final class Forward(sample: Boolean) extends RowSink {
    def emit(rel: Int, row: Array[Long]): Unit = inner.insertAt(rel, row, sample)
  }
  private val sampled = new Forward(sample = true)
  private val indexed = new Forward(sample = false)

  def insert(rel: String, values: Array[Long]): Unit =
    combiner.translate(combiner.baseQuery.indexOf(rel), values, sampled)

  /** Index maintenance only (the update-only column of Fig. 9). */
  def updateOnly(rel: String, values: Array[Long]): Unit =
    combiner.translate(combiner.baseQuery.indexOf(rel), values, indexed)

  def sample: Seq[JoinRow] = inner.sample
  def propagations: Long = inner.propagations
  def edgePropagations: Long = inner.edgePropagations
  def approxBytes: Long = inner.approxBytes + combiner.approxBytes
}

object FkEngine {
  /** RSJoin_opt: FK combination in front of RSJoin (optionally grouped). */
  def rs(query: JoinQuery, fks: Seq[FkSpec], k: Int, seed: Long,
         grouping: Boolean = false, trackFullJoin: Boolean = true): FkEngine = {
    val comb = new FkCombiner(query, fks)
    new FkEngine(comb,
      new ReservoirJoinEngine(comb.combinedQuery, k, seed, grouping, trackFullJoin))
  }

  /** SJoin_opt: FK combination in front of the SJoin baseline. */
  def sj(query: JoinQuery, fks: Seq[FkSpec], k: Int, seed: Long,
         trackFullJoin: Boolean = true): FkEngine = {
    val comb = new FkCombiner(query, fks)
    new FkEngine(comb,
      new repro.core.baseline.SJoinEngine(comb.combinedQuery, k, seed, trackFullJoin))
  }
}
