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
  */
final class RelationStore(
    val schema: RelSchema,
    private[core] val capacity: Int = RelationStore.MaxTuples,
) extends Serializable {
  import Proj.Tup

  val tuples = new ArrayBuffer[Tup]

  private var indexes = Array.empty[KeyIndex]

  /** Register (or fetch) the index on `attrs`, backfilling existing tuples.
    * Its dictionary is `dicts(attrs)`, created on first use: the caller's
    * dictionaries, one per attribute list, shared with its other stores.
    * `listing` is the index's [[KeyIndex.Listing]]; an index is registered
    * under one listing only.
    */
  def ensureIndex(attrs: Vector[String], dicts: mutable.Map[Vector[String], KeyDict],
                  listing: KeyIndex.Listing = KeyIndex.All): KeyIndex =
    indexes.find(_.attrs == attrs).map { ix =>
      require(ix.listing == listing, s"${schema.name}: index on $attrs is ${ix.listing}, not $listing")
      ix
    }.getOrElse {
      val ix = new KeyIndex(attrs, dicts.getOrElseUpdate(attrs, new KeyDict(attrs.size)), schema.idxOf(attrs), listing)
      var id = 0
      while (id < tuples.length) { ix.add(id, tuples(id)); id += 1 }
      indexes :+= ix
      ix
    }

  /** Append `t` and encode its key on every registered attribute list. */
  def insert(t: Tup): Int = {
    requireArity(t)
    val id = tuples.length
    if (id >= capacity)
      throw new IllegalStateException(
        s"${schema.name}: relation full at $capacity tuples (tuple ids are Ints)")
    tuples += t
    var i = 0
    while (i < indexes.length) { indexes(i).add(id, t); i += 1 }
    id
  }

  /** An `IllegalArgumentException` unless `t` has the schema's arity. */
  def requireArity(t: Tup): Unit =
    require(t.length == schema.arity, s"${schema.name}: tuple arity ${t.length} != ${schema.arity}")

  def size: Int = tuples.length

  /** Bytes of the tuples and of the indexes' columns and lists (see
    * [[Bytes]]); the dictionaries are their owner's.
    */
  def approxBytes: Long =
    Bytes.refs(tuples.length) + tuples.length.toLong * Bytes.longs(schema.arity) +
      indexes.iterator.map(_.approxBytes).sum
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
