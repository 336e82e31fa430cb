package rsjbench

import repro.core.{Batch, BatchReservoir, RelationStore, ReservoirJoinEngine, SamplingEngine}
import repro.core.Proj.JoinRow
import repro.core.baseline.SJoinEngine
import repro.core.fk.FkEngine

/** How a pass hands one tuple to the engine. The untraced run loads only
  * [[Direct]], so its `SamplingEngine.insert` call site stays monomorphic.
  */
sealed abstract class Feed {
  def insert(rel: String, values: Array[Long]): Unit
}

final class Direct(engine: SamplingEngine) extends Feed {
  def insert(rel: String, values: Array[Long]): Unit = engine.insert(rel, values)
}

/** Replays `SamplingEngine.insert` from outside, one public call at a time,
  * with a span around each call. The calls and their order are those of
  * `ReservoirJoinEngine.insert`/`updateOnly`, `SJoinEngine.insert` and
  * `FkEngine.insert`, so a traced engine ends in the same state, and holds
  * the same sample, as one fed through `insert`.
  */
final class Traced(engine: SamplingEngine, tr: Tracer, counts: TraceCounts) extends Feed {
  import Traced.Steps

  private val (fk, steps) = engine match {
    case e: FkEngine => (e, Steps.of(e.inner))
    case e           => (null, Steps.of(e))
  }

  def insert(rel: String, values: Array[Long]): Unit =
    if (fk == null) insertInner(rel, values)
    else {
      tr.begin(Layer.Translate)
      val ts = fk.combiner.translate(rel, values)
      tr.end()
      counts.fkOutTuples += ts.length
      var i = 0
      while (i < ts.length) { insertInner(ts(i)._1, ts(i)._2); i += 1 }
    }

  private def insertInner(rel: String, values: Array[Long]): Unit = {
    val r = steps.relIdx.getOrElse(rel,
      throw new IllegalArgumentException(s"unknown relation $rel"))
    tr.begin(Layer.Store)
    val id = steps.stores(r).insert(values)
    tr.end()
    counts.storeCalls += 1
    var i = 0
    while (i < steps.onInsert.length) {
      tr.begin(Layer.Propagate)
      steps.onInsert(i)(r, id)
      tr.end()
      i += 1
    }
    steps.countInsert()
    tr.begin(Layer.Sizing)
    val batch = steps.deltaBatch(r)(id)
    tr.end()
    counts.batchItems += batch.size
    tr.begin(Layer.Reservoir)
    steps.reservoir.update(new TimedBatch(batch, tr, counts))
    tr.end()
  }
}

object Traced {

  /** The public parts of an RSJoin or SJoin engine that its `insert` uses. */
  final class Steps(
      val relIdx: Map[String, Int],
      val stores: Vector[RelationStore],
      val onInsert: Array[(Int, Int) => Unit],
      val deltaBatch: Array[Int => Batch[JoinRow]],
      val reservoir: BatchReservoir[JoinRow],
      val countInsert: () => Unit,
  )

  object Steps {
    def of(engine: SamplingEngine): Steps = engine match {
      case e: ReservoirJoinEngine =>
        new Steps(e.query.relIdx, e.stores,
          e.trees.map(t => (r: Int, id: Int) => t.onInsert(r, id)).toArray,
          e.trees.map(t => (id: Int) => t.deltaBatch(id)).toArray,
          e.reservoir, () => e.inserts += 1)
      case e: SJoinEngine =>
        new Steps(e.query.relIdx, e.stores,
          e.trees.map(t => (r: Int, id: Int) => t.onInsert(r, id)).toArray,
          e.trees.map(t => (id: Int) => t.deltaBatch(id)).toArray,
          e.reservoir, () => e.inserts += 1)
      case other =>
        throw new IllegalArgumentException(s"no traced path for ${other.getClass.getName}")
    }
  }

  /** The reservoir an engine samples into (the inner one behind FK combination). */
  def reservoirOf(engine: SamplingEngine): BatchReservoir[JoinRow] = engine match {
    case e: FkEngine => reservoirOf(e.inner)
    case e           => Steps.of(e).reservoir
  }

  /** Relations of the query the engine's index runs on. */
  def indexArity(engine: SamplingEngine): Int = engine match {
    case e: FkEngine            => e.combiner.combinedQuery.arity
    case e: ReservoirJoinEngine => e.query.arity
    case e: SJoinEngine         => e.query.arity
    case other => throw new IllegalArgumentException(other.getClass.getName)
  }
}
