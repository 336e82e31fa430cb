package repro.core

import scala.collection.immutable

import Proj.JoinRow

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
final class IdRow(private[core] val layout: RowLayout, private[core] val ids: Array[Int])
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

/** A reservoir's rows as tuple ids of `layout`'s query, flat in one `Int`
  * array: row `i` is `ids(i·n until (i+1)·n)` for `n` relations. The array
  * grows by doubling up to `k` rows, the most a reservoir of size `k` holds.
  *
  * The staged row is `scratch`, the retrieve scratch of the index that fills
  * the reservoir, so a batch of that index stages a position by retrieving
  * it (see `EdgeIndex.deltaBatch`): no stop allocates. Rows are built as
  * [[IdRow]]s, over a copy of their ids, only when read.
  *
  * @param capacity the most ids the array holds; growing past it throws
  */
final class IdMatrix private[core] (
    k: Int,
    layout: RowLayout,
    private[core] val scratch: Array[Int],
    capacity: Int = RelationStore.MaxTuples,
) extends SampleStore[JoinRow] {
  private val n = scratch.length
  private var ids = new Array[Int](0)
  private var rows = 0

  def length: Int = rows

  def apply(i: Int): JoinRow = new IdRow(layout, java.util.Arrays.copyOfRange(ids, i * n, i * n + n))

  /** Stage a row that a batch over the same layout retrieved. */
  def stage(x: JoinRow): Unit = x match {
    case r: IdRow if r.layout eq layout => System.arraycopy(r.ids, 0, scratch, 0, n)
    case _ => throw new IllegalArgumentException(s"not a row of this reservoir's layout: $x")
  }

  def append(): Unit = {
    val need = (rows + 1).toLong * n
    if (need > ids.length) {
      if (need > capacity)
        throw new IllegalStateException(
          s"reservoir of k = $k rows of arity $n: ${rows + 1} rows need $need tuple ids, past $capacity")
      val cap = math.min(k.toLong * n, capacity.toLong)
      ids = java.util.Arrays.copyOf(ids, math.max(need, math.min(ids.length * 2L, cap)).toInt)
    }
    System.arraycopy(scratch, 0, ids, rows * n, n)
    rows += 1
  }

  def put(i: Int): Unit = System.arraycopy(scratch, 0, ids, i * n, n)
}
