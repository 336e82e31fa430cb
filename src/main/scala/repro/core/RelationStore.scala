package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Tuple arena plus key indexes (semijoin lists) for one relation.
  *
  * A [[KeyIndex]] on an attribute list encodes each tuple's projection once,
  * at insert, as a dense key id of the list's [[KeyDict]], and keeps the ids
  * of the tuples with each key in insertion order: the `R_e ⋉ t` lists of
  * Section 4, positionally addressable for retrieval. Indexes can be
  * registered at any time (existing tuples are backfilled), and are
  * deduplicated by attribute list so several states can share them.
  *
  * A [[ValueStore]] keeps each tuple's values; a [[CombinedStore]] keeps a
  * join row as the ids of the tuples it joins and reads its values through
  * their stores.
  */
abstract class RelationStore(val schema: RelSchema, private[core] val capacity: Int) extends Serializable {

  private var indexes = Array.empty[KeyIndex]

  def size: Int

  /** The value at position `pos` of tuple `id`. */
  def value(id: Int, pos: Int): Long

  /** Append a tuple, encode its key on every registered attribute list and
    * return its id.
    */
  def insert(t: Array[Long]): Int

  /** Tuple `id`'s values, at least at the positions an index reads; valid
    * until the next call.
    */
  protected def keyValues(id: Int): Array[Long]

  /** Called with a new index's positions before it is backfilled. */
  protected def reads(idx: Array[Int]): Unit = ()

  /** Register (or fetch) the index on `attrs`, backfilling existing tuples.
    * Its dictionary is `dicts(attrs)`, created on first use: the caller's
    * dictionaries, one per attribute list, shared with its other stores.
    * `listing` is the index's [[KeyIndex.Listing]]; an index is registered
    * under one listing only.
    */
  final def ensureIndex(attrs: Vector[String], dicts: mutable.Map[Vector[String], KeyDict],
                        listing: KeyIndex.Listing = KeyIndex.All): KeyIndex =
    indexes.find(_.attrs == attrs).map { ix =>
      require(ix.listing == listing, s"${schema.name}: index on $attrs is ${ix.listing}, not $listing")
      ix
    }.getOrElse {
      val idx = schema.idxOf(attrs)
      reads(idx)
      val ix = new KeyIndex(attrs, dicts.getOrElseUpdate(attrs, new KeyDict(attrs.size)), idx, listing)
      var id = 0
      while (id < size) { ix.add(id, keyValues(id)); id += 1 }
      indexes :+= ix
      ix
    }

  /** The id the next tuple gets; an `IllegalStateException` naming the
    * relation once the store holds `capacity` tuples.
    */
  protected final def nextId(): Int = {
    val id = size
    if (id >= capacity)
      throw new IllegalStateException(
        s"${schema.name}: relation full at $capacity tuples (tuple ids are Ints)")
    id
  }

  /** Encode tuple `id`, whose values `t` holds, on every index. */
  protected final def indexTuple(id: Int, t: Array[Long]): Unit = {
    var i = 0
    while (i < indexes.length) { indexes(i).add(id, t); i += 1 }
  }

  /** Bytes of the indexes' columns and lists (see [[Bytes]]); the
    * dictionaries are their owner's.
    */
  def approxBytes: Long = indexes.iterator.map(_.approxBytes).sum
}

/** A store that keeps each tuple's values: the caller's array, for good. */
final class ValueStore(schema: RelSchema, capacity: Int = RelationStore.MaxTuples)
    extends RelationStore(schema, capacity) {
  import Proj.Tup

  val tuples = new ArrayBuffer[Tup]

  def size: Int = tuples.length

  def value(id: Int, pos: Int): Long = tuples(id)(pos)

  protected def keyValues(id: Int): Array[Long] = tuples(id)

  /** An `IllegalArgumentException` unless `t` has the schema's arity. */
  def requireArity(t: Tup): Unit =
    require(t.length == schema.arity, s"${schema.name}: tuple arity ${t.length} != ${schema.arity}")

  def insert(t: Tup): Int = {
    requireArity(t)
    val id = nextId()
    tuples += t
    indexTuple(id, t)
    id
  }

  override def approxBytes: Long =
    Bytes.refs(tuples.length) + tuples.length.toLong * Bytes.longs(schema.arity) + super.approxBytes
}

/** A store of the join rows of `layout`'s query, the bag of a foreign-key
  * group (Section 4.4): a row is one tuple id per member relation, the
  * member-id vector, and the rows sit flat in one `Int` column, row `id` at
  * `[id·n, (id+1)·n)` for `n` members. Its values are read through `layout`
  * from the member stores, which are append-only, so a row keeps naming the
  * same tuples. An index's key is gathered from the member tuples, at
  * insert, into one scratch array.
  *
  * `insert` takes the member-id vector as `Array[Long]` and keeps no
  * reference to it. A vector of the wrong width, or with an id that its
  * member store does not hold, is an `IllegalArgumentException` naming the
  * group.
  */
final class CombinedStore(schema: RelSchema, val layout: RowLayout)
    extends RelationStore(schema, RelationStore.MaxTuples / layout.stores.length) {

  require(schema.attrs == layout.attrs.toVector, s"${schema.name}: not the attributes of its layout")

  private val members: Array[RelationStore] = layout.stores.toArray
  private val n = members.length
  private var ids = new Array[Int](0)
  private var rows = 0

  /** The positions the indexes read, and the array they are gathered into. */
  private var gathered = Array.empty[Int]
  private val scratch = new Array[Long](schema.arity)

  def size: Int = rows

  def value(id: Int, pos: Int): Long = {
    val r = layout.rel(pos)
    members(r).value(ids(id * n + r), layout.pos(pos))
  }

  protected def keyValues(id: Int): Array[Long] = {
    var i = 0
    while (i < gathered.length) { val p = gathered(i); scratch(p) = value(id, p); i += 1 }
    scratch
  }

  override protected def reads(idx: Array[Int]): Unit = gathered = (gathered ++ idx).distinct.sorted

  def insert(v: Array[Long]): Int = {
    if (v.length != n)
      throw new IllegalArgumentException(s"${schema.name}: a member-id vector of width ${v.length}, not $n")
    var r = 0
    while (r < n) {
      if (v(r) < 0 || v(r) >= members(r).size)
        throw new IllegalArgumentException(
          s"${schema.name}: member ${members(r).schema.name} holds no tuple ${v(r)} (it holds ${members(r).size})")
      r += 1
    }
    val id = nextId()
    val at = id * n
    if (at + n > ids.length) ids = java.util.Arrays.copyOf(ids, Slots.grownLength(ids.length, at + n))
    r = 0
    while (r < n) { ids(at + r) = v(r).toInt; r += 1 }
    rows += 1
    indexTuple(id, keyValues(id))
    id
  }

  override def approxBytes: Long = Bytes.ints(ids.length) + Bytes.longs(scratch.length) + super.approxBytes
}

object RelationStore {
  /** The most tuples a store holds: ids are `Int`s, and arrays indexed by
    * them (the tuple arena, the index's slot arrays) stop below
    * `Int.MaxValue`.
    */
  val MaxTuples: Int = Int.MaxValue - 8
}

/** A store's index on one attribute list: each tuple's key id (the key-id
  * column, indexed by tuple id) and, by its [[KeyIndex.Listing]], the
  * semijoin lists (tuple ids by key id, in insertion order) or the one tuple
  * of each key.
  */
final class KeyIndex private[core] (val attrs: Vector[String], val dict: KeyDict, idx: Array[Int],
                                    val listing: KeyIndex.Listing) extends Serializable {
  private var column = new Array[Int](0)

  /** The listed tuples of each key (none under `Unique`). */
  val ids = new IdLists

  /** Under `Unique`, 1 + the tuple id of each key id (0: none yet). */
  private var single: Array[Int] = if (listing == KeyIndex.Unique) new Array[Int](0) else null

  /** The key id of tuple `id`. */
  def keyOf(id: Int): Int = column(id)

  /** Under `Unique`, the tuple with key id `k`, or -1. */
  def tupleOf(k: Int): Int = if (k < single.length) single(k) - 1 else -1

  /** Under `Unique`, the tuple whose key is `t`'s, or -1; adds no key. */
  def holderOf(t: Array[Long]): Int = {
    val k = dict.find(t, idx)
    if (k < 0) -1 else tupleOf(k)
  }

  /** `t`'s key, as `attr = value` pairs. */
  private[core] def show(t: Array[Long]): String = attrs.indices.map(i => s"${attrs(i)} = ${t(idx(i))}").mkString("(", ", ", ")")

  private[core] def add(id: Int, t: Array[Long]): Unit = {
    val k = dict.idOf(t, idx)
    if (id >= column.length) column = java.util.Arrays.copyOf(column, Slots.grownLength(column.length, id + 1))
    column(id) = k
    listing match {
      case KeyIndex.All => ids.add(k, id)
      case KeyIndex.Unique =>
        if (k >= single.length) single = java.util.Arrays.copyOf(single, Slots.grownLength(single.length, k + 1))
        single(k) = id + 1
      case KeyIndex.Owner =>
    }
  }

  def approxBytes: Long = Bytes.Object + Bytes.ints(column.length) + ids.approxBytes +
    (if (single == null) 0L else Bytes.ints(single.length))
}

object KeyIndex {
  /** What an index keeps besides the key-id column. */
  sealed trait Listing extends Serializable

  /** Every tuple, in its key's semijoin list. */
  case object All extends Listing

  /** Only the tuples its owner lists through `ids.add`. */
  case object Owner extends Listing

  /** The one tuple of each key, in a flat array by key id (`tupleOf`): the
    * key is a primary key. The owner keeps it one: a second tuple with a
    * present key replaces the first.
    */
  case object Unique extends Listing
}

/** Unboxed `Int` lists in an array indexed by key id, each in insertion
  * order: a store's semijoin lists.
  */
final class IdLists extends Serializable {
  private var lists = new Array[Array[Int]](0)
  private var lens = new Array[Int](0)

  /** The length of list `k` (0 for a key never added to). */
  def length(k: Int): Int = if (k < lens.length) lens(k) else 0

  /** List `k`'s backing array: its first `length(k)` elements are the list.
    * Only for a non-empty list.
    */
  def apply(k: Int): Array[Int] = lists(k)

  def add(k: Int, v: Int): Unit = {
    if (k >= lens.length) {
      val n = Slots.grownLength(lens.length, k + 1)
      lists = java.util.Arrays.copyOf(lists, n)
      lens = java.util.Arrays.copyOf(lens, n)
    }
    var l = lists(k)
    if (l == null) { l = new Array[Int](2); lists(k) = l }
    else if (lens(k) == l.length) { l = java.util.Arrays.copyOf(l, Slots.grownLength(l.length, l.length + 1)); lists(k) = l }
    l(lens(k)) = v
    lens(k) += 1
  }

  def approxBytes: Long =
    Bytes.Object + Bytes.refs(lists.length) + Bytes.ints(lens.length) +
      lists.iterator.filter(_ != null).map(l => Bytes.ints(l.length)).sum
}

/** The figures `approxBytes` charges: a 64-bit JVM with compressed
  * references, 16-byte object and array headers, sizes rounded up to 8.
  */
private[core] object Bytes {
  val Object: Long = 16L
  private def align(b: Long): Long = (b + 7) & ~7L
  def ints(n: Int): Long = align(16L + 4L * n)
  def longs(n: Int): Long = 16L + 8L * n
  def refs(n: Int): Long = align(16L + 4L * n)
}
