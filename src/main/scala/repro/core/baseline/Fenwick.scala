package repro.core.baseline

import repro.core.{Bytes, Slots}

/** Growable Fenwick (binary indexed) tree over Long weights.
  *
  * Supports append, point update, prefix-sum search — the positional
  * machinery the SJoin baseline needs to retrieve the z-th join result
  * under *exact* per-tuple counts.
  */
final class Fenwick extends Serializable {
  private var tree = new Array[Long](16) // 1-based
  private var n = 0

  def size: Int = n
  def total: Long = prefix(n)

  /** Sum of weights of slots [0, i). */
  def prefix(i: Int): Long = {
    var s = 0L
    var j = i
    while (j > 0) { s += tree(j); j -= j & -j }
    s
  }

  def add(i: Int, delta: Long): Unit = {
    require(i >= 0 && i < n, s"slot $i out of [0, $n)")
    var j = i + 1
    while (j <= n) { tree(j) += delta; j += j & -j }
  }

  def weight(i: Int): Long = prefix(i + 1) - prefix(i)

  def approxBytes: Long = Bytes.Object + Bytes.longs(tree.length)

  /** Append a new slot with weight `w` in O(log n): the new cell covers the
    * range (n − lowbit(n), n], whose sum is `w` plus the already-stored
    * sub-range cells.
    */
  def append(w: Long): Unit = {
    n += 1
    if (n >= tree.length) tree = java.util.Arrays.copyOf(tree, Slots.grownLength(tree.length, n + 1))
    val j = n
    var sum = w
    var t = j - 1
    val lo = j - (j & -j)
    while (t > lo) { sum += tree(t); t -= t & -t }
    tree(j) = sum
  }

  /** Find the slot containing global position `z` (0 ≤ z < total):
    * the unique i with prefix(i) ≤ z < prefix(i+1). Returns i and writes
    * z − prefix(i) into `offset(0)`. Zero-weight slots own no positions and
    * are skipped.
    */
  def search(z: Long, offset: Array[Long]): Int = {
    require(z >= 0 && z < total, s"position $z out of [0, $total)")
    var pos = 0
    var rem = z
    var step = java.lang.Integer.highestOneBit(math.max(n, 1))
    while (step > 0) {
      val next = pos + step
      if (next <= n && tree(next) <= rem) { pos = next; rem -= tree(next) }
      step >>= 1
    }
    offset(0) = rem
    pos // the 0-based slot index
  }
}
