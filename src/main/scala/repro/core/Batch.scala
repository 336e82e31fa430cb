package repro.core

/** A positionally addressable batch of items, possibly containing dummies.
  *
  * This is the interface the dynamic join index exposes for each `ΔJ`
  * (Section 3.4): `size` is `|ΔJ|` (returned in O(1)), and `retrieve(z)` is
  * the paper's retrieve operation — `Some(item)` if position `z` holds a real
  * item, `None` if it holds a dummy. The predicate θ = isReal is folded into
  * `retrieve`, which is the single O(log N) operation per stop.
  */
trait Batch[A] {
  def size: Long
  def retrieve(z: Long): Option[A]

  /** Stage the item at position `z` in `into` (see [[SampleStore]]); true
    * iff the position is real. This goes through `retrieve`; a batch that
    * can write a store's own representation directly overrides it, and must
    * stage the same item.
    */
  def stage(z: Long, into: SampleStore[A]): Boolean = retrieve(z) match {
    case Some(x) => into.stage(x); true
    case None    => false
  }
}

object Batch {

  /** A fully materialized batch with an explicit predicate — used by tests
    * and by the RSWP experiment adapters.
    */
  def fromSeq[A](items: IndexedSeq[A], theta: A => Boolean): Batch[A] = new Batch[A] {
    val size: Long = items.length.toLong
    def retrieve(z: Long): Option[A] = {
      val x = items(z.toInt)
      if (theta(x)) Some(x) else None
    }
  }
}
