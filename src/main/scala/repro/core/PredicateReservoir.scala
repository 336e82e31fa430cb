package repro.core

import scala.collection.mutable.ArrayBuffer

/** Counters for the primitives of Section 3 — used to verify the
  * instance-optimality bound `O(Σ min(1, k/(r_i+1)))` empirically and to
  * report the RSWP experiments (Figs. 12–13).
  */
final class ReservoirStats extends Serializable {
  var nextCalls: Long = 0 // items examined one-by-one during fill
  var stops: Long = 0 // skip(·) landings after the reservoir filled
  def touched: Long = nextCalls + stops
}

/** Reservoir sampling with a predicate (Section 3, Algorithms 1–3).
  *
  * Erratum note (see DESIGN.md): the skip length `q` is redrawn after *every*
  * stop, not only after real stops, which is what makes Algorithm 1 equivalent
  * to the per-item Bernoulli process of Algorithm 2. `w` is still updated only
  * on real stops.
  */
object PredicateReservoir {

  /** Algorithm 1 over an indexed stream with O(1) skip: one batch of
    * Algorithm 5 on a fresh [[BatchReservoir]], whose counters are added to
    * `stats`.
    *
    * Returns the reservoir (size `min(k, #real items)`), a uniform sample
    * without replacement of the items on which `theta` is true.
    */
  def run[A](items: IndexedSeq[A], k: Int, theta: A => Boolean, rng: Rng,
             stats: ReservoirStats = new ReservoirStats): IndexedSeq[A] = {
    val r = new BatchReservoir[A](k, rng)
    r.update(Batch.fromSeq(items, theta))
    stats.nextCalls += r.stats.nextCalls
    stats.stops += r.stats.stops
    r.sample
  }

  /** Classic O(N) reservoir over real items (Waterman's algorithm applied to
    * the θ-filtered stream) — the obviously-correct oracle for tests, and the
    * "RS" baseline of Section 6.3.
    */
  def naive[A](items: IterableOnce[A], k: Int, theta: A => Boolean, rng: Rng,
               stats: ReservoirStats = new ReservoirStats): ArrayBuffer[A] = {
    require(k > 0, s"sample size must be positive, got $k")
    val sample = new ArrayBuffer[A](k)
    var r = 0L // real items seen
    items.iterator.foreach { x =>
      stats.nextCalls += 1
      if (theta(x)) {
        r += 1
        if (sample.length < k) sample += x
        else {
          val j = rng.nextLong(r)
          if (j < k) sample(j.toInt) = x
        }
      }
    }
    sample
  }
}
