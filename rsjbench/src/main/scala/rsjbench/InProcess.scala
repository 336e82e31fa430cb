package rsjbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import repro.core.SamplingEngine

/** The in-process workloads: one thread feeds the engine in a closed loop,
  * calling `insert` for the next tuple only after the previous call returned.
  */
object InProcess {
  /** Set-ups are repeated before each timed pass for at least this many
    * seconds; the median of them all is `setup_s`. A set-up takes about
    * 10 ms, so a few timed at JVM start would measure the JIT's progress, and
    * a block timed in one go the host's speed in those seconds; spread over
    * the run, they meet the same host as the passes.
    */
  val SetupSliceSeconds = 0.1
  val WarmupPasses = 2
  val MinPasses = 3
  /** Tuples per micro-batch for the trigger latency of in-process workloads. */
  val ChunkTuples = 1000

  /** Figures of one timed pass, and the engine it left behind. */
  final class Pass(val wallNanos: Long, val latency: Array[Long], val chunks: Array[Long],
                   val engine: SamplingEngine)

  /** Feed every tuple of `in` into a fresh engine, timing each insert. */
  def pass(name: String, in: Input, seed: Long, out: Outcome,
           feedOf: SamplingEngine => Feed, tr: Tracer = null): Pass = {
    val engine = Workloads.engine(name, in, seed)
    val feed = feedOf(engine)
    val n = in.tuples.length
    val latency = new Array[Long](n)
    val chunks = new Array[Long](n / ChunkTuples)
    var failures = 0L
    val t0 = System.nanoTime()
    var chunkStart = t0
    var i = 0
    while (i < n) {
      val t = in.tuples(i)
      val a = System.nanoTime()
      try feed.insert(t._1, t._2)
      catch {
        case NonFatal(e) =>
          if (failures == 0) System.err.println(s"insert $i of $name threw: $e")
          failures += 1
          if (tr != null) tr.unwind()
      }
      val b = System.nanoTime()
      latency(i) = b - a
      i += 1
      if (i % ChunkTuples == 0) { chunks(i / ChunkTuples - 1) = b - chunkStart; chunkStart = b }
    }
    val wall = System.nanoTime() - t0
    out.inserts += n
    out.insertFailures += failures
    java.util.Arrays.sort(latency)
    java.util.Arrays.sort(chunks)
    new Pass(wall, latency, chunks, engine)
  }

  /** Set-ups for [[SetupSliceSeconds]], each one input generation and engine
    * construction; adds the seconds of each to `secs`.
    */
  private def setups(name: String, seed: Long, secs: ArrayBuffer[Double]): Unit = {
    val start = System.nanoTime()
    while (System.nanoTime() - start < SetupSliceSeconds * 1e9) {
      val t0 = System.nanoTime()
      Workloads.engine(name, Workloads.input(name, seed), seed)
      secs += (System.nanoTime() - t0) / 1e9
    }
  }

  val direct = (e: SamplingEngine) => new Direct(e): Feed

  /** End-to-end metrics: warm-up passes, then timed passes for `seconds`. */
  def untraced(name: String, seed: Long, seconds: Int, out: Outcome): Unit = {
    val in = Workloads.input(name, seed)
    val n = in.tuples.length
    for (_ <- 1 to WarmupPasses) pass(name, in, seed, out, direct)
    val base = Jvm.retainedBytes()
    val tput, p50, p99, t50, t75, heap, setup = ArrayBuffer.empty[Double]
    var first = 0
    var last: SamplingEngine = null
    val start = System.nanoTime()
    while (tput.size < MinPasses || System.nanoTime() - start < seconds * 1000000000L) {
      last = null
      setups(name, seed, setup)
      val p = pass(name, in, seed, out, direct)
      tput += n / (p.wallNanos / 1e9)
      p50 += Stats.percentile(p.latency, 0.50) / 1e3
      p99 += Stats.percentile(p.latency, 0.99) / 1e3
      t50 += Stats.percentile(p.chunks, 0.50) / 1e6
      t75 += Stats.percentile(p.chunks, 0.75) / 1e6
      last = p.engine
      heap += (Jvm.retainedBytes() - base) / Jvm.MiB
      val fp = last.sample.hashCode
      if (tput.size == 1) first = fp
      else out.checks.add(s"pass ${tput.size} draws the sample of pass 1", fp == first,
        "same seed and stream gave another sample")
    }
    out.put("tuples_per_s", Stats.median(tput.toSeq))
    out.put("insert_p50_us", Stats.median(p50.toSeq))
    out.put("insert_p99_us", Stats.median(p99.toSeq))
    out.put("trigger_p50_ms", Stats.median(t50.toSeq))
    out.put("trigger_p75_ms", Stats.median(t75.toSeq))
    out.put("heap_mib", Stats.median(heap.toSeq))
    out.put("setup_s", Stats.median(setup.toSeq))
    System.err.println(s"$name: ${tput.size} timed passes of $n tuples, tuples/s " +
      tput.map(t => f"$t%.0f").mkString(" "))
    out.checks.sample(name, in.query, in.tuples.toSeq, in.k, in.joinSize, last.sample)
  }

  /** Per-layer metrics: untraced and traced passes alternate for `seconds`. */
  def traced(name: String, seed: Long, seconds: Int, out: Outcome): Unit = {
    val in = Workloads.input(name, seed)
    val n = in.tuples.length
    pass(name, in, seed, out, direct)
    val warmTracer = new Tracer
    pass(name, in, seed, out, e => new Traced(e, warmTracer, new TraceCounts), warmTracer)
    val untracedSecs = ArrayBuffer.empty[Double]
    val layer = ArrayBuffer.empty[Map[String, Double]]
    var reference: Seq[repro.core.Proj.JoinRow] = null
    var last: SamplingEngine = null
    var counts: TraceCounts = null
    val start = System.nanoTime()
    while (layer.size < 2 || System.nanoTime() - start < seconds * 1000000000L) {
      val u = pass(name, in, seed, out, direct)
      untracedSecs += u.wallNanos / 1e9
      if (reference == null) reference = u.engine.sample
      else out.checks.add(s"untraced pass ${untracedSecs.size} repeats the sample", u.engine.sample == reference,
        "same seed and stream gave another sample")

      val tr = new Tracer
      counts = new TraceCounts
      val gc0 = Jvm.gcNanos()
      val alloc0 = Jvm.threadAllocated()
      val p = pass(name, in, seed, out, e => new Traced(e, tr, counts), tr)
      val alloc = Jvm.threadAllocated() - alloc0
      val gc = Jvm.gcNanos() - gc0
      last = p.engine
      out.checks.add(s"traced pass ${layer.size + 1} equals the untraced sample position by position",
        last.sample == reference, "tracing changed the sample")
      val s = tr.self.map(_ / 1e9)
      layer += Map(
        "index.propagate_s" -> s(Layer.Propagate),
        "index.sizing_s" -> s(Layer.Sizing),
        "retrieve.s" -> s(Layer.Retrieve),
        "reservoir.self_s" -> s(Layer.Reservoir),
        "store.insert_s" -> s(Layer.Store),
        "fk.translate_s" -> s(Layer.Translate),
        "jvm.alloc_mib" -> alloc / Jvm.MiB,
        "jvm.gc_s" -> gc / 1e9,
        "trace.pass_s" -> p.wallNanos / 1e9,
        "trace.coverage" -> tr.selfSum.toDouble / p.wallNanos,
      )
    }
    for (m <- layer.head.keys) out.put(m, Stats.median(layer.map(_(m)).toSeq))
    out.put("trace.overhead", Stats.median(layer.map(_("trace.pass_s")).toSeq) / Stats.median(untracedSecs.toSeq))
    putCounts(out, last, counts)
    for (m <- Seq("state.serialize_s", "state.deserialize_s", "state.bytes", "spark.overhead_s"))
      out.put(m, 0.0)
    System.err.println(s"$name: ${layer.size} traced and ${untracedSecs.size} untraced passes of $n tuples")
    out.checks.sample(name, in.query, in.tuples.toSeq, in.k, in.joinSize, last.sample)
  }

  /** Counters of the last traced pass; they repeat exactly from pass to pass. */
  def putCounts(out: Outcome, engine: SamplingEngine, c: TraceCounts): Unit = {
    val m = Traced.indexArity(engine)
    val exact = engine.isInstanceOf[repro.core.baseline.SJoinEngine]
    out.put("index.propagations", engine.propagations.toDouble)
    out.put("batch.items", c.batchItems.toDouble)
    out.put("retrieve.calls", c.retrieveCalls.toDouble)
    out.put("retrieve.density", if (c.retrieveCalls == 0) 0.0 else c.retrieveReal.toDouble / c.retrieveCalls)
    out.put("retrieve.density_bound", if (exact) 1.0 else math.pow(2, -(2 * m - 2)))
    out.put("reservoir.stops", Traced.reservoirOf(engine).stats.stops.toDouble)
    out.put("store.calls", c.storeCalls.toDouble)
    out.put("fk.out_tuples", c.fkOutTuples.toDouble)
    out.put("engine.approx_bytes", engine.approxBytes.toDouble)
  }
}
