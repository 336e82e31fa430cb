package repro.core

import scala.collection.immutable

/** Where a join row of `query` reads each attribute: the lowest-indexed
  * relation holding it, and its position there, in `stores`. The stores are
  * append-only, so a tuple id keeps naming the same tuple for good.
  */
final class RowLayout(query: JoinQuery, val stores: Vector[RelationStore]) extends Serializable {
  val attrs: Array[String] = query.attributes.toArray
  val rel: Array[Int] = attrs.map(a => query.relations.indexWhere(_.attrs.contains(a)))
  val pos: Array[Int] = attrs.indices.map(i => query.relations(rel(i)).attrs.indexOf(attrs(i))).toArray
  val slot: Map[String, Int] = attrs.zipWithIndex.toMap

  /** Attribute `i` of the row whose tuple ids are `ids`. */
  def value(ids: Array[Int], i: Int): Long = stores(rel(i)).tuples(ids(rel(i)))(pos(i))
}

/** A join row as a view: one tuple id per relation of the layout's query,
  * whose attribute values are read only when the row is looked at. It equals
  * (and hashes like) the plain `Map` with the same entries.
  */
final class IdRow(layout: RowLayout, ids: Array[Int])
    extends immutable.AbstractMap[String, Long] with Serializable {

  def get(a: String): Option[Long] = layout.slot.get(a).map(layout.value(ids, _))

  def iterator: Iterator[(String, Long)] =
    Iterator.tabulate(layout.attrs.length)(i => (layout.attrs(i), layout.value(ids, i)))

  override def size: Int = layout.attrs.length
  override def knownSize: Int = size

  // `Map.from(this)` would return this row itself: build from the entries.
  def removed(a: String): Map[String, Long] = Map.from(iterator).removed(a)
  def updated[V >: Long](a: String, v: V): Map[String, V] = Map.from[String, V](iterator).updated(a, v)
}
