package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Tuple arena plus hash indexes (semijoin lists) for one relation.
  *
  * Every index maps a projection key to the list of matching tuple ids in
  * insertion order — exactly the `R_e ⋉ t` lists of Section 4, positionally
  * addressable for retrieval. Indexes can be registered at any time (existing
  * tuples are backfilled), and are deduplicated by attribute list so several
  * join trees can share them.
  */
final class RelationStore(
    val schema: RelSchema,
    private[core] val capacity: Int = RelationStore.MaxTuples,
) extends Serializable {
  import Proj.Tup

  val tuples = new ArrayBuffer[Tup]

  private val indexes = mutable.LinkedHashMap.empty[Vector[String], IndexOn]

  final class IndexOn(val attrs: Vector[String]) extends Serializable {
    val idx: Array[Int] = schema.idxOf(attrs)
    val map = mutable.HashMap.empty[IndexedSeq[Long], ArrayBuffer[Int]]
    def add(id: Int, t: Tup): Unit =
      map.getOrElseUpdate(Proj.key(t, idx), new ArrayBuffer[Int](4)) += id
    def get(key: IndexedSeq[Long]): ArrayBuffer[Int] =
      map.getOrElse(key, RelationStore.NoIds)
  }

  /** Register (or fetch) an index on `attrs`, backfilling existing tuples. */
  def ensureIndex(attrs: Vector[String]): IndexOn =
    indexes.getOrElseUpdate(attrs, {
      val ix = new IndexOn(attrs)
      var id = 0
      while (id < tuples.length) { ix.add(id, tuples(id)); id += 1 }
      ix
    })

  def insert(t: Tup): Int = {
    require(t.length == schema.arity,
      s"${schema.name}: tuple arity ${t.length} != ${schema.arity}")
    val id = tuples.length
    if (id >= capacity)
      throw new IllegalStateException(
        s"${schema.name}: relation full at $capacity tuples (tuple ids are Ints)")
    tuples += t
    indexes.valuesIterator.foreach(_.add(id, t))
    id
  }

  /** Ids of tuples matching `key` on `attrs` (index must be registered). */
  def lookup(attrs: Vector[String], key: IndexedSeq[Long]): ArrayBuffer[Int] =
    indexes.getOrElse(attrs,
      throw new IllegalStateException(s"${schema.name}: no index on $attrs")).get(key)

  def size: Int = tuples.length

  /** Rough memory accounting for the Fig. 11 experiment (bytes). */
  def approxBytes: Long = {
    val tupleBytes = tuples.length.toLong * (24L + 8L * schema.arity)
    val indexBytes = indexes.valuesIterator.map { ix =>
      ix.map.size.toLong * 80L + ix.map.valuesIterator.map(_.length.toLong * 8L + 40L).sum
    }.sum
    tupleBytes + indexBytes
  }
}

object RelationStore {
  /** The most tuples a store holds: ids are `Int`s, and arrays indexed by
    * them (the tuple arena, the index's slot arrays) stop below
    * `Int.MaxValue`.
    */
  val MaxTuples: Int = Int.MaxValue - 8

  /** Shared empty result — never mutated. */
  val NoIds: ArrayBuffer[Int] = new ArrayBuffer[Int](0)
}
