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
  */
final class FkCombiner(val baseQuery: JoinQuery, fks: Seq[FkSpec]) extends Serializable {

  // Connected components of the FK graph.
  private val relIdx = baseQuery.relIdx
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

  /** The rewritten (combined) query the inner engine runs on. */
  val combinedQuery: JoinQuery =
    JoinQuery(baseQuery.name + "_fk", groups.map(combinedSchema))

  private val groupOf: Map[Int, Int] =
    groups.zipWithIndex.flatMap { case (g, gi) => g.map(_ -> gi) }.toMap

  // One delta enumerator per multi-member group (over the group's subquery).
  private val enumerators: Vector[DeltaEnumerator] = groups.map { g =>
    if (g.size == 1) null
    else new DeltaEnumerator(JoinQuery("grp", g.map(baseQuery.relations(_))))
  }

  /** Translate one base-relation insert into 0+ combined-relation inserts. */
  def translate(rel: String, values: Array[Long]): ArrayBuffer[(String, Array[Long])] = {
    val r = relIdx.getOrElse(rel,
      throw new IllegalArgumentException(s"unknown relation $rel"))
    val gi = groupOf(r)
    val out = new ArrayBuffer[(String, Array[Long])](1)
    if (groups(gi).size == 1) {
      out += ((rel, values))
    } else {
      // The combined schema's attributes are the group query's
      // `attributes`, in the same order: each emitted row is copied whole.
      val name = combinedQuery.relations(gi).name
      enumerators(gi).insertAndEmit(rel, values)(row => out += ((name, row.clone())))
    }
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

  def insert(rel: String, values: Array[Long]): Unit = forward(rel, values, sample = true)

  /** Index maintenance only (the update-only column of Fig. 9). */
  def updateOnly(rel: String, values: Array[Long]): Unit = forward(rel, values, sample = false)

  /** Translate one base insert and hand each combined tuple to the inner engine. */
  private def forward(rel: String, values: Array[Long], sample: Boolean): Unit = {
    val ts = combiner.translate(rel, values)
    var i = 0
    while (i < ts.length) {
      if (sample) inner.insert(ts(i)._1, ts(i)._2) else inner.updateOnly(ts(i)._1, ts(i)._2)
      i += 1
    }
  }

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
