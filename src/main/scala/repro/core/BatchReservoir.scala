package repro.core

import scala.collection.mutable.ArrayBuffer

/** Where a [[BatchReservoir]] keeps its items. A batch stages an item (see
  * [[Batch.stage]]), and the reservoir then appends it or writes it over a
  * slot, so a store can hold items in a form other than `A`.
  */
abstract class SampleStore[A] extends Serializable {
  def length: Int

  /** The item in slot `i`, as an `A` of its own: later writes leave it as it is. */
  def apply(i: Int): A

  /** Hold `x` as the staged item. */
  def stage(x: A): Unit

  /** Add the staged item in a new slot. */
  def append(): Unit

  /** Write the staged item over slot `i`. */
  def put(i: Int): Unit
}

object SampleStore {

  /** Items kept as they are. */
  final class Boxed[A] extends SampleStore[A] {
    private val items = new ArrayBuffer[A]
    private var staged: A = _

    def length: Int = items.length
    def apply(i: Int): A = items(i)
    def stage(x: A): Unit = staged = x
    def append(): Unit = items += staged
    def put(i: Int): Unit = items(i) = staged
  }
}

/** Batched reservoir sampling with a predicate (Section 3.3, Algorithms 4–5).
  *
  * The state (reservoir, `w`, pending skip `q`) persists across batches:
  * a skip that runs off the end of one batch carries over into the next.
  * `w = +∞` is the sentinel for "reservoir not yet filled" — `w`/`q` are
  * initialized exactly once, the first time the reservoir reaches `k` items,
  * no matter how many batches that takes (line 1 of Algorithm 4).
  *
  * The items live in `store`: boxed `A`s by default, tuple ids for the join
  * engines ([[IdMatrix]]).
  *
  * Instances are serializable so the Spark streaming operator can park them
  * in the state store between micro-batches.
  */
final class BatchReservoir[A](val k: Int, val rng: Rng, store: SampleStore[A]) extends Serializable {
  require(k > 0, s"sample size must be positive, got $k")

  def this(k: Int, rng: Rng) = this(k, rng, new SampleStore.Boxed[A])

  private var w: Double = Double.PositiveInfinity
  private var q: Long = 0L
  val stats = new ReservoirStats

  /** Number of batch items offered so far (real + dummy) — diagnostics only. */
  var itemsOffered: Long = 0L

  /** The reservoir's items, in slot order, built anew on each call. */
  def sample: IndexedSeq[A] = Vector.tabulate(store.length)(store(_))

  /** BatchUpdate (Algorithm 5): absorb one batch. */
  def update(batch: Batch[A]): Unit = {
    val size = batch.size
    itemsOffered += size
    var pos = 0L
    // Fill phase: examine items one by one while the reservoir is short.
    while (store.length < k && pos < size) {
      stats.nextCalls += 1
      stats.thetaEvals += 1
      if (batch.stage(pos, store)) store.append()
      pos += 1
    }
    if (store.length < k) return // batch exhausted before the reservoir filled
    if (w.isInfinity) { // first time full: initialize w and q (lines 5–7)
      w = Geo.wFactor(k, rng)
      q = Geo.draw(w, rng)
    }
    // Skip loop (lines 8–14), with q redrawn after every stop (see DESIGN.md).
    while (size - pos > q) {
      pos += q + 1
      stats.stops += 1
      stats.thetaEvals += 1
      if (batch.stage(pos - 1, store)) {
        store.put(rng.nextInt(k))
        w *= Geo.wFactor(k, rng)
      }
      q = Geo.draw(w, rng)
    }
    q -= (size - pos) // carry the unused part of the skip into the next batch
  }
}
