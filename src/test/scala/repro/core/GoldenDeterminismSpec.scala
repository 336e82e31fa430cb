package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import scala.collection.mutable.ArrayBuffer

import repro.SparkSpec
import repro.core.Proj.JoinRow
import repro.core.baseline.SJoinEngine
import repro.core.cyclic.GhdEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** Pins, for a fixed seed and stream, what each engine draws: the final
  * sample position by position, `propagations`, and the `|ΔJ|` offered to
  * the reservoir by every insert. A refactor of the index or the engines must
  * leave every line unchanged; a change to the sampling itself must re-pin
  * them and say why.
  */
class GoldenDeterminismSpec extends SparkSpec {

  private type Stream = Seq[(String, Array[Long])]

  private def graph(edges: Int, nodes: Int, seed: Long) = StreamGen.graphEdges(edges, nodes, seed)

  private val line3: Stream = StreamGen.lineK(3, graph(150, 40, 42), 42).stream
  private val star3: Stream = StreamGen.starK(3, graph(150, 40, 43), 43).stream
  private val qz: Stream = { val w = StreamGen.qz(0.05, 3); w.preload ++ w.stream }
  private val triangle: Stream = StreamGen.shuffle(
    (for (i <- 1 to 3; e <- graph(120, 25, 7)) yield (s"g$i", Array(e._1, e._2))).toIndexedSeq,
    new Rng(5))

  private val cases: Seq[(String, Stream, () => SamplingEngine)] = Seq(
    ("line3 RSJoin", line3, () => new ReservoirJoinEngine(Queries.lineK(3), 40, 7)),
    ("line3 RSJoin untracked", line3,
      () => new ReservoirJoinEngine(Queries.lineK(3), 40, 7, trackFullJoin = false)),
    ("line3 RSJoin+grouping", line3,
      () => new ReservoirJoinEngine(Queries.lineK(3), 40, 7, grouping = true)),
    ("line3 SJoin", line3, () => new SJoinEngine(Queries.lineK(3), 40, 7)),
    ("line3 SJoin untracked", line3,
      () => new SJoinEngine(Queries.lineK(3), 40, 7, trackFullJoin = false)),
    ("star3 RSJoin", star3, () => new ReservoirJoinEngine(Queries.starK(3), 40, 7)),
    ("star3 RSJoin+grouping", star3,
      () => new ReservoirJoinEngine(Queries.starK(3), 40, 7, grouping = true)),
    ("star3 SJoin", star3, () => new SJoinEngine(Queries.starK(3), 40, 7)),
    ("qz RSJoin+grouping", qz, () => new ReservoirJoinEngine(Queries.qz, 40, 7, grouping = true)),
    ("qz RSJoin_opt", qz,
      () => FkEngine.rs(Queries.qz, Queries.qzFks, 40, 7, grouping = true, trackFullJoin = false)),
    ("qz SJoin_opt", qz, () => FkEngine.sj(Queries.qz, Queries.qzFks, 40, 7)),
    ("triangle GHD", triangle, () => GhdEngine.triangle(20, 7)),
  )

  private val golden: Map[String, String] = Map(
    "line3 RSJoin" -> ("sample=3ffa0d6a4f7c64a0 n=40 propagations=1444 " +
      "deltas=c34d2bfb9243ec9e offered=4633 stops=209"),
    "line3 RSJoin untracked" -> ("sample=3ffa0d6a4f7c64a0 n=40 propagations=395 " +
      "deltas=c34d2bfb9243ec9e offered=4633 stops=209"),
    "line3 RSJoin+grouping" -> ("sample=3ffa0d6a4f7c64a0 n=40 propagations=1444 " +
      "deltas=c34d2bfb9243ec9e offered=4633 stops=209"),
    "line3 SJoin" -> ("sample=dadeebcd5be8dbdb n=40 propagations=5256 " +
      "deltas=436c7cdd9549a09f offered=3903 stops=178"),
    "line3 SJoin untracked" -> ("sample=dadeebcd5be8dbdb n=40 propagations=897 " +
      "deltas=436c7cdd9549a09f offered=3903 stops=178"),
    "star3 RSJoin" -> ("sample=989e6cd9a7fec7f8 n=40 propagations=1780 " +
      "deltas=853ee1c2d8983480 offered=12804 stops=265"),
    "star3 RSJoin+grouping" -> ("sample=818c4ec8b45c04a8 n=40 propagations=1490 " +
      "deltas=d406091f12e0445d offered=17155 stops=352"),
    "star3 SJoin" -> ("sample=a76f2cd576553d1b n=40 propagations=10131 " +
      "deltas=a1ca8e7fe39ae316 offered=10380 stops=213"),
    "qz RSJoin+grouping" -> ("sample=d7c7eb86ad8bc3ed n=40 propagations=2605 " +
      "deltas=18370fde8f8bcc5b offered=38624 stops=470"),
    "qz RSJoin_opt" -> ("sample=4dd060ce0a894d6d n=40 propagations=38 " +
      "deltas=6a30bcb9c8f85a57 offered=18129 stops=274"),
    "qz SJoin_opt" -> ("sample=19b3aa164dfb29a7 n=40 propagations=9875 " +
      "deltas=14916c3ebd924779 offered=13676 stops=222"),
    "triangle GHD" -> ("sample=3e49112dd0aeafa6 n=20 propagations=0 " +
      "deltas=3d88a7df3bc58693 offered=192 stops=48"),
  )

  private def reservoirOf(e: SamplingEngine): BatchReservoir[JoinRow] = e match {
    case r: ReservoirJoinEngine => r.reservoir
    case f: FkEngine            => reservoirOf(f.inner)
    case g: GhdEngine           => g.inner.reservoir
  }

  private def digest(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8)).take(8).map("%02x".format(_)).mkString

  private def row(r: JoinRow): String =
    r.toSeq.sortBy(_._1).map { case (a, v) => s"$a=$v" }.mkString(",")

  /** Feed the stream through `insert` and summarise what the engine drew. */
  private def run(stream: Stream, mk: () => SamplingEngine): String = {
    val e = mk()
    val res = reservoirOf(e)
    val deltas = new ArrayBuffer[Long](stream.size)
    for ((rel, t) <- stream) {
      val before = res.itemsOffered
      e.insert(rel, t.clone())
      deltas += res.itemsOffered - before
    }
    s"sample=${digest(e.sample.map(row).mkString(";"))} n=${e.sample.size} " +
      s"propagations=${e.propagations} deltas=${digest(deltas.mkString(","))} " +
      s"offered=${deltas.sum} stops=${res.stats.stops}"
  }

  for ((name, stream, mk) <- cases) {
    test(s"same seed, same draw: $name") {
      assert(run(stream, mk) === golden.getOrElse(name, "(not pinned)"))
    }
  }
}
