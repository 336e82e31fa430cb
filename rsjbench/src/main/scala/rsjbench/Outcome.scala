package rsjbench

import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Metric names and units, in the order BENCHMARK.json lists them. */
object Metrics {
  val EndToEnd: Seq[(String, String)] = Seq(
    "tuples_per_s" -> "tuples/s",
    "insert_p50_us" -> "us",
    "insert_p99_us" -> "us",
    "trigger_p50_ms" -> "ms",
    "trigger_p75_ms" -> "ms",
    "heap_mib" -> "MiB",
    "setup_s" -> "s",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "index.propagate_s" -> "s",
    "index.propagations" -> "count",
    "index.sizing_s" -> "s",
    "batch.items" -> "count",
    "retrieve.s" -> "s",
    "retrieve.calls" -> "count",
    "retrieve.density" -> "ratio",
    "retrieve.density_bound" -> "ratio",
    "reservoir.self_s" -> "s",
    "reservoir.stops" -> "count",
    "store.insert_s" -> "s",
    "store.calls" -> "count",
    "fk.translate_s" -> "s",
    "fk.out_tuples" -> "count",
    "state.serialize_s" -> "s",
    "state.deserialize_s" -> "s",
    "state.bytes" -> "bytes",
    "spark.overhead_s" -> "s",
    "jvm.alloc_mib" -> "MiB",
    "jvm.gc_s" -> "s",
    "engine.approx_bytes" -> "bytes",
    "trace.pass_s" -> "s",
    "trace.overhead" -> "ratio",
    "trace.coverage" -> "ratio",
  )
}

/** What one run measured and checked; printed as a table and a JSON line. */
final class Outcome(trace: Boolean) {
  val checks = new Checks
  var inserts = 0L
  var insertFailures = 0L
  private val values = mutable.LinkedHashMap.empty[String, Double]
  private val wanted = if (trace) Metrics.PerLayer else Metrics.EndToEnd

  def put(name: String, value: Double): Unit = {
    require(wanted.exists(_._1 == name), s"$name is not a ${if (trace) "per-layer" else "end-to-end"} metric")
    values(name) = value
  }

  def attempted: Long = inserts + checks.results.size
  def failed: Long = insertFailures + checks.failed
  def errorRate: Double = failed.toDouble / math.max(1L, attempted)

  def report(): String = {
    val sb = new StringBuilder
    for ((name, ok, detail) <- checks.results)
      sb ++= (if (ok) s"check ok      $name\n" else s"check FAILED  $name: $detail\n")
    for ((name, unit) <- wanted)
      sb ++= f"$name%-24s ${values.get(name).fold("(not measured)")(fmt)}%16s $unit\n"
    sb ++= f"${"error_rate"}%-24s ${fmt(errorRate)}%16s ratio  ($failed failed of $attempted attempted)\n"
    sb.toString
  }

  /** The result line. A metric that was not measured fails the run. */
  def json: String = {
    val missing = wanted.map(_._1).filterNot(values.contains)
    missing.foreach(m => checks.add(s"metric $m measured", ok = false, "no value"))
    val ms = wanted.filter(m => values.contains(m._1)).map { case (name, unit) =>
      s""""$name": {"value": ${fmt(values(name))}, "unit": "$unit"}"""
    }
    s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, """ +
      s""""failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** All digits as measured; a value that is not a number reads as 0. */
  private def fmt(d: Double): String =
    if (d.isNaN || d.isInfinite) "0" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)
}

/** JVM-wide measurements. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap in use right after full collections: what the live objects retain.
    * Read from each pool's usage at the end of its last collection: heap usage
    * read afterwards also counts the allocation buffer the reading thread
    * has since taken from eden, several MiB under a high allocation rate.
    */
  def retainedBytes(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP)
      .flatMap(p => Option(p.getCollectionUsage))
      .map(_.getUsed).sum
  }

  def gcNanos(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(_.getCollectionTime).filter(_ > 0).sum * 1000000L

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by the live threads (Spark's task threads included). */
  def allThreadsAllocated(): Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  val MiB: Double = 1024.0 * 1024.0
}
