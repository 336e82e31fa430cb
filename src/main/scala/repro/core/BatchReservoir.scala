package repro.core

import scala.collection.mutable.ArrayBuffer

/** Batched reservoir sampling with a predicate (Section 3.3, Algorithms 4–5).
  *
  * The state (reservoir, `w`, pending skip `q`) persists across batches:
  * a skip that runs off the end of one batch carries over into the next.
  * `w = +∞` is the sentinel for "reservoir not yet filled" — `w`/`q` are
  * initialized exactly once, the first time the reservoir reaches `k` items,
  * no matter how many batches that takes (line 1 of Algorithm 4).
  *
  * Instances are serializable so the Spark streaming operator can park them
  * in the state store between micro-batches.
  */
final class BatchReservoir[A](val k: Int, val rng: Rng) extends Serializable {
  require(k > 0, s"sample size must be positive, got $k")

  val sample = new ArrayBuffer[A](math.min(k, 1 << 20))
  private var w: Double = Double.PositiveInfinity
  private var q: Long = 0L
  val stats = new ReservoirStats

  /** Number of batch items offered so far (real + dummy) — diagnostics only. */
  var itemsOffered: Long = 0L

  /** BatchUpdate (Algorithm 5): absorb one batch. */
  def update(batch: Batch[A]): Unit = {
    val size = batch.size
    itemsOffered += size
    var pos = 0L
    // Fill phase: examine items one by one while the reservoir is short.
    while (sample.length < k && pos < size) {
      stats.nextCalls += 1
      stats.thetaEvals += 1
      batch.retrieve(pos) match {
        case Some(x) => sample += x
        case None    => ()
      }
      pos += 1
    }
    if (sample.length < k) return // batch exhausted before the reservoir filled
    if (w.isInfinity) { // first time full: initialize w and q (lines 5–7)
      w = Geo.wFactor(k, rng)
      q = Geo.draw(w, rng)
    }
    // Skip loop (lines 8–14), with q redrawn after every stop (see DESIGN.md).
    while (size - pos > q) {
      pos += q + 1
      stats.stops += 1
      stats.thetaEvals += 1
      batch.retrieve(pos - 1) match {
        case Some(x) =>
          sample(rng.nextInt(k)) = x
          w *= Geo.wFactor(k, rng)
        case None => ()
      }
      q = Geo.draw(w, rng)
    }
    q -= (size - pos) // carry the unused part of the skip into the next batch
  }
}
