package repro.core

/** Dictionary from a join key of `width` attributes to a dense key id: the
  * ids are 0, 1, 2, … in first-seen order, so arrays indexed by key id stand
  * in for maps keyed by the key. Width 0 is the ∅ key, whose one id is 0.
  *
  * The keys sit flat in one `Long` array, key `k` at `[k·width, (k+1)·width)`.
  * Lookup is open addressing with linear probing over an `Int` table of ids
  * (-1 empty), kept at most half full; a key is read in place from a tuple
  * (or any `Long` array) through the positions of its attributes, so no
  * lookup allocates.
  *
  * An engine keeps one dictionary per join-attribute list and shares it
  * among every store and index state that projects onto that list: attribute
  * names are global in a natural join, so a key id names the same key
  * everywhere in the engine.
  *
  * @param capacity the most keys it takes; adding one more throws
  */
final class KeyDict(val width: Int, private[core] val capacity: Int = KeyDict.MaxKeys)
    extends Serializable {
  import KeyDict._

  require(width >= 0 && capacity > 0 && capacity <= MaxKeys, s"width $width, capacity $capacity")

  private var keys = new Array[Long](0)
  private var table = Array.fill(8)(-1)
  private var n = 0

  /** Number of keys, and the next id. */
  def size: Int = n

  /** The id of the key at positions `idx` of `t`, adding it if new. */
  def idOf(t: Array[Long], idx: Array[Int]): Int = {
    val h = probe(t, idx)
    val id = table(h)
    if (id >= 0) id else add(h, t, idx)
  }

  /** The id of the key at positions `idx` of `t`, or -1 if absent; adds none. */
  def find(t: Array[Long], idx: Array[Int]): Int = table(probe(t, idx))

  /** The values of key `id`, in attribute order. */
  def key(id: Int): IndexedSeq[Long] = {
    require(id >= 0 && id < n, s"no key id $id (size $n)")
    keys.slice(id * width, (id + 1) * width).toIndexedSeq
  }

  /** The table slot holding the key, or the empty slot where it would go. */
  private def probe(t: Array[Long], idx: Array[Int]): Int = {
    val mask = table.length - 1
    var h = hash(t, idx).toInt & mask
    var id = table(h)
    while (id >= 0 && !same(id, t, idx)) { h = (h + 1) & mask; id = table(h) }
    h
  }

  private def same(id: Int, t: Array[Long], idx: Array[Int]): Boolean = {
    val base = id * width
    var i = 0
    while (i < width) {
      if (keys(base + i) != t(idx(i))) return false
      i += 1
    }
    true
  }

  private def add(slot: Int, t: Array[Long], idx: Array[Int]): Int = {
    if (n >= capacity)
      throw new IllegalStateException(s"key dictionary full at $capacity keys of width $width")
    val id = n
    val end = (id + 1L) * width
    if (end > keys.length)
      keys = java.util.Arrays.copyOf(keys, Slots.grownLength(keys.length, math.min(end, Int.MaxValue).toInt))
    var i = 0
    while (i < width) { keys(id * width + i) = t(idx(i)); i += 1 }
    table(slot) = id
    n += 1
    if (2 * n > table.length) rehash()
    id
  }

  /** Double the table; ids and keys stay where they are. */
  private def rehash(): Unit = {
    table = Array.fill(table.length * 2)(-1)
    val mask = table.length - 1
    val at = Array.tabulate(width)(identity)
    val key = new Array[Long](width)
    var id = 0
    while (id < n) {
      System.arraycopy(keys, id * width, key, 0, width)
      var h = hash(key, at).toInt & mask
      while (table(h) >= 0) h = (h + 1) & mask
      table(h) = id
      id += 1
    }
  }

  /** Bytes of the arrays it holds (see [[Bytes]]). */
  def approxBytes: Long = Bytes.Object + Bytes.longs(keys.length) + Bytes.ints(table.length)
}

object KeyDict {
  /** The most keys a dictionary holds: its table, twice as long, is the
    * largest power-of-two `Int` array.
    */
  val MaxKeys: Int = 1 << 29

  private[core] val Seed = 0x9e3779b97f4a7c15L

  /** Murmur3's 64-bit finalizer, a bijection on `Long`. */
  private[core] def mix(x: Long): Long = {
    var z = (x ^ (x >>> 33)) * 0xff51afd7ed558ccdL
    z = (z ^ (z >>> 33)) * 0xc4ceb9fe1a85ec53L
    z ^ (z >>> 33)
  }

  /** The hash of the key at positions `idx` of `t`: `Seed` folded with
    * `mix(h ^ value)` over the key's values.
    */
  private[core] def hash(t: Array[Long], idx: Array[Int]): Long = {
    var h = Seed
    var i = 0
    while (i < idx.length) { h = mix(h ^ t(idx(i))); i += 1 }
    h
  }
}
