package rsjbench

import repro.core.Batch

/** The layers a tuple passes through, in the order of ROADMAP aim 1. */
object Layer {
  val Store = 0       // RelationStore.insert
  val Propagate = 1   // TreeIndex.onInsert / SJoinTree.onInsert, every tree
  val Sizing = 2      // deltaBatch: |ΔJ| and the batch object
  val Reservoir = 3   // BatchReservoir.update (self time: the skip loop)
  val Retrieve = 4    // Batch.retrieve, JoinRow materialisation included
  val Translate = 5   // FkCombiner.translate
  val Deserialize = 6 // StreamingReservoirJoin.deserialize
  val Serialize = 7   // StreamingReservoirJoin.serialize
  val Count = 8
}

/** Per-layer time from nested spans that the benchmark records around its
  * own calls into the engines' public functions.
  *
  * A span's self time is its duration minus the durations of its direct
  * children. Spans nest strictly (a child starts after and ends before its
  * parent, and siblings do not overlap), so self time is never negative.
  * Spans are folded into per-layer totals as they close, so a traced pass of
  * millions of spans needs no memory per span.
  */
final class Tracer {
  val self = new Array[Long](Layer.Count)

  private val layerAt = new Array[Int](16)
  private val startAt = new Array[Long](16)
  private val childAt = new Array[Long](16)
  private var depth = 0

  def begin(layer: Int): Unit = beginAt(layer, System.nanoTime())
  def end(): Unit = endAt(System.nanoTime())

  def beginAt(layer: Int, now: Long): Unit = {
    layerAt(depth) = layer
    startAt(depth) = now
    childAt(depth) = 0L
    depth += 1
  }

  def endAt(now: Long): Unit = {
    require(depth > 0, "span ended that never began")
    depth -= 1
    val d = now - startAt(depth)
    self(layerAt(depth)) += d - childAt(depth)
    if (depth > 0) childAt(depth - 1) += d
  }

  /** Close every open span, after an insert threw inside one. */
  def unwind(): Unit = while (depth > 0) end()

  /** Sum of self times over all layers, in nanoseconds. */
  def selfSum: Long = self.sum
}

/** Counts taken at the same boundaries as the spans. */
final class TraceCounts {
  var storeCalls = 0L
  var batchItems = 0L
  var retrieveCalls = 0L
  var retrieveReal = 0L
  var fkOutTuples = 0L
}

/** A `ΔJ` batch whose `retrieve` calls are timed and counted. */
final class TimedBatch[A](inner: Batch[A], tr: Tracer, counts: TraceCounts) extends Batch[A] {
  val size: Long = inner.size
  def retrieve(z: Long): Option[A] = {
    tr.begin(Layer.Retrieve)
    val r = inner.retrieve(z)
    tr.end()
    counts.retrieveCalls += 1
    if (r.isDefined) counts.retrieveReal += 1
    r
  }
}
