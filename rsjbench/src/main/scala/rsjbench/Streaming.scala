package rsjbench

import java.io.File

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{Dataset, SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.execution.streaming.state.StateStore
import org.apache.spark.sql.streaming.StreamingQuery

import repro.core.ReservoirJoinEngine
import repro.core.Proj.JoinRow
import repro.spark.{SampleSnapshot, StreamingReservoirJoin, TaggedTuple}

/** The streaming workload: `StreamingReservoirJoin.attach` on a
  * `MemoryStream`, fed in a closed loop of fixed-size micro-batches, each one
  * `addData` followed by `processAllAvailable`. Spark runs as `local[2]`.
  */
object Streaming {
  val SetupReps = 11
  val MinPasses = 2
  /** Micro-batches of the warm-up pass. */
  val WarmupTriggers = 20
  /** In-process warm-up passes of the operator's engine: at least this many,
    * for at least [[EngineWarmupSeconds]].
    */
  val EngineWarmupPasses = 20
  val EngineWarmupSeconds = 2
  /** Retained-heap samples per pass, one after each of the last micro-batches:
    * whether Spark still caches an older state version varies from one
    * sample to the next, and the median settles it.
    */
  val HeapSamples = 3

  def session(work: File): SparkSession =
    SparkSession.builder
      .master("local[2]")
      .appName("rsjbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "2")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .getOrCreate()

  /** One running query over a fresh `MemoryStream` and fresh state. Its sink
    * keeps only the newest snapshot, so retained heap is the operator's.
    */
  final class Query(spark: SparkSession, in: Input, seed: Long, work: File) {
    private implicit val sqlCtx: SQLContext = spark.sqlContext
    import spark.implicits._
    @volatile private var latest: SampleSnapshot = null
    private val input = MemoryStream[TaggedTuple]
    private val query: StreamingQuery =
      StreamingReservoirJoin.attach(input.toDS(), in.query, in.k, seed)
        .writeStream.outputMode("update")
        .option("checkpointLocation", new File(work, s"checkpoint-${Query.next()}").getPath)
        .foreachBatch { (ds: Dataset[SampleSnapshot], _: Long) =>
          ds.collect().foreach(s => if (latest == null || s.lastSeq > latest.lastSeq) latest = s)
        }
        .start()

    /** One micro-batch; returns its latency in nanoseconds. */
    def trigger(batch: Seq[TaggedTuple]): Long = {
      val t0 = System.nanoTime()
      input.addData(batch)
      query.processAllAvailable()
      System.nanoTime() - t0
    }

    def lastSnapshot(): SampleSnapshot = latest

    def stop(): Unit = query.stop()
  }

  private object Query {
    private var n = 0
    def next(): Int = { n += 1; n }
  }

  /** The in-process replica of the operator's per-trigger work: deserialize
    * the engine, insert the micro-batch, serialize it again. It calls the same
    * public functions as the operator, so its spans split the trigger.
    */
  final class Replica(in: Input, seed: Long, tr: Tracer, counts: TraceCounts) {
    var bytes: Array[Byte] = null
    var engine: ReservoirJoinEngine = null

    def step(from: Int, until: Int): Unit = {
      tr.begin(Layer.Deserialize)
      engine =
        if (bytes == null) new ReservoirJoinEngine(in.query, in.k, seed)
        else StreamingReservoirJoin.deserialize(bytes)
      tr.end()
      val feed = new Traced(engine, tr, counts)
      var i = from
      while (i < until) { feed.insert(in.tuples(i)._1, in.tuples(i)._2); i += 1 }
      tr.begin(Layer.Serialize)
      bytes = StreamingReservoirJoin.serialize(engine)
      tr.end()
    }
  }

  final class Pass(val triggers: Array[Long], val snapshot: SampleSnapshot, val heapBytes: Seq[Long]) {
    def sparkNanos: Long = triggers.sum
  }

  private def batches(in: Input): Vector[(Int, Int, Seq[TaggedTuple])] =
    in.tuples.indices.grouped(Workloads.TriggerTuples).map { ix =>
      (ix.head, ix.last + 1,
        ix.map(i => TaggedTuple(i.toLong, in.tuples(i)._1, in.tuples(i)._2.toSeq)).toSeq)
    }.toVector

  /** Stream all of `in` through a fresh query. Each trigger is followed by
    * `after(from, until)` over its tuples, outside the trigger's latency;
    * with `measureHeap` the retained heap is taken before
    * the query starts and after each of the last [[HeapSamples]] triggers,
    * while the query holds its state.
    */
  def pass(spark: SparkSession, in: Input, seed: Long, work: File, out: Outcome,
           after: (Int, Int) => Unit = (_, _) => (), measureHeap: Boolean = false,
           around: (() => Long) => Long = f => f(), limit: Int = Int.MaxValue): Pass = {
    val base = if (measureHeap) Jvm.retainedBytes() else 0L
    val q = new Query(spark, in, seed, work)
    try {
      val lat = ArrayBuffer.empty[Long]
      val heap = ArrayBuffer.empty[Long]
      val todo = batches(in).take(limit)
      for (((from, until, batch), i) <- todo.zipWithIndex) {
        out.inserts += batch.size
        try lat += around(() => q.trigger(batch))
        catch {
          case NonFatal(e) =>
            System.err.println(s"micro-batch at tuple $from failed: $e")
            out.insertFailures += batch.size
        }
        after(from, until)
        if (measureHeap && i >= todo.size - HeapSamples) heap += Jvm.retainedBytes() - base
      }
      new Pass(lat.toArray, q.lastSnapshot(), heap.toSeq)
    } finally {
      q.stop()
      // Drop the stopped query's state stores now rather than at the next
      // maintenance, so that no pass's heap figure holds an earlier pass's
      // state. `unloadAll` is private[sql] in Scala but public in bytecode.
      StateStore.getClass.getMethod("unloadAll").invoke(StateStore)
    }
  }

  /** One in-process pass of the operator's engine: its p50 and p99 insert
    * latency in microseconds, and its sample.
    */
  private def enginePass(in: Input, seed: Long, out: Outcome): (Double, Double, Seq[JoinRow]) = {
    val p = InProcess.pass("stream-line3", in, seed, out, InProcess.direct)
    (Stats.percentile(p.latency, 0.50) / 1e3, Stats.percentile(p.latency, 0.99) / 1e3, p.engine.sample)
  }

  private def checkPass(label: String, p: Pass, in: Input, ref: Seq[JoinRow], out: Outcome): Unit = {
    out.checks.add(s"$label: last snapshot saw all ${in.tuples.length} tuples",
      p.snapshot.tuplesSeen == in.tuples.length, s"tuplesSeen = ${p.snapshot.tuplesSeen}")
    out.checks.add(s"$label: last snapshot equals the in-process engine's sample position by position",
      p.snapshot.rows == ref, "the streamed sample differs")
  }

  def run(seed: Long, seconds: Int, trace: Boolean, work: File, out: Outcome): Unit = {
    var in: Input = null
    var spark: SparkSession = null
    val setupSecs = (1 to (if (trace) 1 else SetupReps)).map { rep =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      in = Workloads.input("stream-line3", seed)
      spark = session(work)
      val q = new Query(spark, in, seed, work)
      val secs = (System.nanoTime() - t0) / 1e9
      q.stop()
      secs
    }
    try {
      // The operator's engine fed in-process, one timed insert call at a time:
      // its sample is the one every snapshot must equal.
      var ref: Seq[JoinRow] = null
      val warm = System.nanoTime()
      for (_ <- 1 to EngineWarmupPasses) ref = enginePass(in, seed, out)._3
      while (!trace && System.nanoTime() - warm < EngineWarmupSeconds * 1000000000L)
        enginePass(in, seed, out)
      pass(spark, in, seed, work, out, limit = WarmupTriggers)
      if (trace) traced(spark, in, seed, seconds, work, ref, out)
      else untraced(spark, in, seed, seconds, work, ref, setupSecs, out)
      out.checks.sample("stream-line3", in.query, in.tuples.toSeq, in.k, in.joinSize, ref)
    } finally spark.stop()
  }

  private def untraced(spark: SparkSession, in: Input, seed: Long, seconds: Int, work: File,
                       ref: Seq[JoinRow], setupSecs: Seq[Double], out: Outcome): Unit = {
    val n = in.tuples.length
    val tput, heap = ArrayBuffer.empty[Double]
    val triggers = ArrayBuffer.empty[Long]
    // Insert latencies come from an in-process pass of the operator's engine
    // after every micro-batch: spread over the whole run, their median rides
    // out the stretches of seconds in which a shared host runs slower.
    val p50, p99 = ArrayBuffer.empty[Double]
    var differ = 0
    val engine = (_: Int, _: Int) => {
      val (a, b, sample) = enginePass(in, seed, out)
      p50 += a; p99 += b
      if (sample != ref) differ += 1
    }
    val start = System.nanoTime()
    while (tput.size < MinPasses || System.nanoTime() - start < seconds * 1000000000L) {
      val p = pass(spark, in, seed, work, out, engine, measureHeap = true)
      checkPass(s"pass ${tput.size + 1}", p, in, ref, out)
      tput += n / (p.sparkNanos / 1e9)
      heap ++= p.heapBytes.map(_ / Jvm.MiB)
      triggers ++= p.triggers
    }
    // Trigger latencies pool the micro-batches of all timed passes.
    val trig = triggers.toArray.sorted
    out.checks.add(s"${p50.size} in-process engine passes draw the operator's reference sample",
      differ == 0, s"$differ passes drew another sample")
    out.put("tuples_per_s", Stats.median(tput.toSeq))
    out.put("insert_p50_us", Stats.median(p50.toSeq))
    out.put("insert_p99_us", Stats.median(p99.toSeq))
    out.put("trigger_p50_ms", Stats.percentile(trig, 0.50) / 1e6)
    out.put("trigger_p75_ms", Stats.percentile(trig, 0.75) / 1e6)
    out.put("heap_mib", Stats.median(heap.toSeq))
    out.put("setup_s", Stats.median(setupSecs))
    System.err.println(s"stream-line3: ${tput.size} timed passes of $n tuples, tuples/s " +
      tput.map(t => f"$t%.1f").mkString(" "))
  }

  private def traced(spark: SparkSession, in: Input, seed: Long, seconds: Int, work: File,
                     ref: Seq[JoinRow], out: Outcome): Unit = {
    val untracedSecs = ArrayBuffer.empty[Double]
    val layer = ArrayBuffer.empty[Map[String, Double]]
    var replica: Replica = null
    var counts: TraceCounts = null
    val start = System.nanoTime()
    while (layer.isEmpty || System.nanoTime() - start < seconds * 1000000000L) {
      val u = pass(spark, in, seed, work, out)
      untracedSecs += u.sparkNanos / 1e9
      val tr = new Tracer
      counts = new TraceCounts
      replica = new Replica(in, seed, tr, counts)
      var gc, alloc = 0L
      // Allocation and GC are taken around the triggers only, not the replica.
      val p = pass(spark, in, seed, work, out, replica.step, around = f => {
        val g0 = Jvm.gcNanos(); val a0 = Jvm.allThreadsAllocated()
        val r = f()
        alloc += Jvm.allThreadsAllocated() - a0; gc += Jvm.gcNanos() - g0
        r
      })
      checkPass(s"traced pass ${layer.size + 1}", p, in, ref, out)
      out.checks.add(s"traced pass ${layer.size + 1} equals the untraced snapshot",
        p.snapshot.rows == u.snapshot.rows, "tracing changed the streamed sample")
      out.checks.add(s"traced pass ${layer.size + 1}: replica holds the streamed sample",
        replica.engine.sample == p.snapshot.rows, "replica and operator disagree")
      val s = tr.self.map(_ / 1e9)
      layer += Map(
        "index.propagate_s" -> s(Layer.Propagate),
        "index.sizing_s" -> s(Layer.Sizing),
        "retrieve.s" -> s(Layer.Retrieve),
        "reservoir.self_s" -> s(Layer.Reservoir),
        "store.insert_s" -> s(Layer.Store),
        "fk.translate_s" -> s(Layer.Translate),
        "state.serialize_s" -> s(Layer.Serialize),
        "state.deserialize_s" -> s(Layer.Deserialize),
        "spark.overhead_s" -> (p.sparkNanos - tr.selfSum) / 1e9,
        "jvm.alloc_mib" -> alloc / Jvm.MiB,
        "jvm.gc_s" -> gc / 1e9,
        "trace.pass_s" -> p.sparkNanos / 1e9,
        "trace.coverage" -> tr.selfSum.toDouble / p.sparkNanos,
      )
    }
    for (m <- layer.head.keys) out.put(m, Stats.median(layer.map(_(m)).toSeq))
    out.put("trace.overhead",
      Stats.median(layer.map(_("trace.pass_s")).toSeq) / Stats.median(untracedSecs.toSeq))
    out.put("state.bytes", replica.bytes.length.toDouble)
    InProcess.putCounts(out, replica.engine, counts)
  }
}
