package rsjbench

import repro.core.{JoinQuery, ReservoirJoinEngine, SamplingEngine}
import repro.core.baseline.SJoinEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** One generated input: the tuples in stream order (preloaded tables first),
  * the query they are joined under, the sample size and the exact `|Q|`.
  */
final class Input(
    val query: JoinQuery,
    val tuples: Array[(String, Array[Long])],
    val k: Int,
    joinSizeOf: () => Long,
) {
  lazy val joinSize: Long = joinSizeOf()
}

/** The five workloads. Why each one is here is recorded in
  * `rsjbench/workloads.json` and BENCHMARK.json; the parameters below are
  * the ones listed there.
  */
object Workloads {
  val Names: Seq[String] = Seq("line5", "line3-kN", "line3-kN-sjoin", "qz-opt", "stream-line3")

  // The seeded power-law graph of the graph workloads (EXPERIMENTS.md scale).
  val GraphEdges = 20000
  val GraphNodes = 4000
  val KGraph = 2000

  // TPC-DS-lite QZ for the FK-combined, grouped engine.
  val QzScale = 30.0
  val KRel = 5000

  // The streaming workload's smaller graph and its micro-batch size.
  val StreamEdges = 2000
  val StreamNodes = 600
  val TriggerTuples = 150

  def isStreaming(name: String): Boolean = name == "stream-line3"

  def input(name: String, seed: Long): Input = name match {
    case "line5"                       => line(5, GraphEdges, GraphNodes, seed, Some(KGraph))
    case "line3-kN" | "line3-kN-sjoin" => line(3, GraphEdges, GraphNodes, seed, None)
    case "qz-opt" =>
      val w = StreamGen.qz(QzScale, seed)
      val all = (w.preload ++ w.stream).toArray
      new Input(w.query, all, KRel, () => JoinSize.tree(w.query, all.toSeq, QzTree))
    case "stream-line3" => line(3, StreamEdges, StreamNodes, seed, Some(KGraph))
    case other => throw new IllegalArgumentException(
      s"unknown workload $other; expected one of ${Names.mkString(", ")}")
  }

  /** Join tree of QZ over `Queries.qz`'s relation order
    * (ss, c1, d1, d2, c2, i1, i2).
    */
  private val QzTree = Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6))

  /** line-k over the seeded graph; k = None samples k = N, the stream length. */
  private def line(len: Int, edges: Int, nodes: Int, seed: Long, k: Option[Int]): Input = {
    val es = StreamGen.graphEdges(edges, nodes, seed)
    val w = StreamGen.lineK(len, es, seed)
    new Input(w.query, w.stream.toArray, k.getOrElse(w.stream.size), () => JoinSize.walks(es, len))
  }

  /** A fresh engine for a workload; the seed is the workload's. */
  def engine(name: String, in: Input, seed: Long): SamplingEngine = name match {
    case "line5" | "line3-kN" =>
      new ReservoirJoinEngine(in.query, in.k, seed, trackFullJoin = false)
    case "line3-kN-sjoin" =>
      new SJoinEngine(in.query, in.k, seed, trackFullJoin = false)
    case "qz-opt" =>
      FkEngine.rs(in.query, Queries.qzFks, in.k, seed, grouping = true, trackFullJoin = false)
    case "stream-line3" => // the engine StreamingReservoirJoin.attach builds
      new ReservoirJoinEngine(in.query, in.k, seed)
    case other => throw new IllegalArgumentException(s"$other has no in-process engine")
  }
}
