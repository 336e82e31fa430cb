package repro.bench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.core.baseline.SJoinEngine
import repro.core.cyclic.GhdEngine
import repro.core.fk.FkEngine
import repro.core.strings.{EditDistance, StringStream}
import repro.data.{StreamGen, Workload}
import repro.queries.Queries

import BenchUtil._

/** One harness per evaluation exhibit of the paper (T1…T9 in DESIGN.md §4).
  * Each returns a printed table; the bench suites and the spark-submit jobs
  * share these functions, differing only in scale.
  */
object Experiments {

  /** Reproduction-scale knobs (paper scale in comments). */
  final case class Scale(
      graphEdges: Int = 12000,  // paper: 508,837 (Epinions)
      graphNodes: Int = 3000,
      kGraph: Int = 2000,       // paper: 100,000
      kRel: Int = 5000,         // paper: 1,000,000
      tpcdsSf: Double = 10,     // paper: TPC-DS SF 10
      q10Sf: Double = 8,        // paper: LDBC SF 1
      budgetSec: Double = 60,   // paper: 12 h timeout
      seed: Long = 42,
  )

  private def graphWorkload(qname: String, s: Scale): Workload = {
    val edges = StreamGen.graphEdges(s.graphEdges, s.graphNodes, s.seed)
    qname match {
      case l if l.startsWith("line") => StreamGen.lineK(l.drop(4).toInt, edges, s.seed)
      case st if st.startsWith("star") => StreamGen.starK(st.drop(4).toInt, edges, s.seed)
      case other => throw new IllegalArgumentException(other)
    }
  }

  private def relWorkload(qname: String, s: Scale): Workload = qname match {
    case "qx"  => StreamGen.qx(s.tpcdsSf, s.seed)
    case "qy"  => StreamGen.qy(s.tpcdsSf, s.seed)
    case "qz"  => StreamGen.qz(s.tpcdsSf, s.seed)
    case "q10" => StreamGen.q10(s.q10Sf, s.seed)
  }

  // -------------------------------------------------------------------------
  // T1 (Fig. 5): total running time per query and engine
  // -------------------------------------------------------------------------

  def t1RunningTime(s: Scale): String = {
    val rows = ArrayBuffer.empty[Seq[String]]

    def run(query: String, engine: String, mk: () => SamplingEngine, w: Seq[(String, Array[Long])]): FeedResult = {
      val r = feed(mk().insert, w, s.budgetSec)
      rows += Seq(query, engine, r.pretty)
      r
    }

    for (qn <- Seq("line3", "line4", "line5", "star4", "star5", "star6")) {
      val w = graphWorkload(qn, s)
      val q = w.query
      run(qn, "RSJoin", () => new ReservoirJoinEngine(q, s.kGraph, s.seed, trackFullJoin = false), w.stream)
      run(qn, "SJoin", () => new SJoinEngine(q, s.kGraph, s.seed, trackFullJoin = false), w.stream)
    }

    // dumbbell: cyclic — SJoin does not support it (as in the paper).
    {
      val edges = StreamGen.graphEdges(s.graphEdges / 4, s.graphNodes / 2, s.seed)
      val stream = StreamGen.dumbbell(edges, s.seed)
      val r = feed(GhdEngine.dumbbell(s.kGraph, s.seed).insert, stream, s.budgetSec)
      rows += Seq("dumbbell", "RSJoin", r.pretty)
      rows += Seq("dumbbell", "SJoin", "n/a (cyclic)")
    }

    for (qn <- Seq("qx", "qy", "qz", "q10")) {
      val w = relWorkload(qn, s)
      val all = w.preload ++ w.stream
      run(qn, "RSJoin", () => new ReservoirJoinEngine(w.query, s.kRel, s.seed, trackFullJoin = false), all)
      run(qn, "RSJoin_opt",
        () => FkEngine.rs(w.query, w.fks, s.kRel, s.seed, grouping = true, trackFullJoin = false), all)
      run(qn, "SJoin", () => new SJoinEngine(w.query, s.kRel, s.seed, trackFullJoin = false), all)
      run(qn, "SJoin_opt", () => FkEngine.sj(w.query, w.fks, s.kRel, s.seed, trackFullJoin = false), all)
    }

    renderTable(Seq("query", "engine", "time"), rows.toSeq)
  }

  // -------------------------------------------------------------------------
  // T2 (Fig. 6): per-tuple update-time distribution (sampling disabled)
  // -------------------------------------------------------------------------

  def t2UpdateTime(s: Scale): String = {
    val w = graphWorkload("line4", s)
    val rows = ArrayBuffer.empty[Seq[String]]
    for ((name, mk) <- Seq[(String, () => ReservoirJoinEngine)](
      "RSJoin" -> (() => new ReservoirJoinEngine(w.query, s.kGraph, s.seed, trackFullJoin = false)),
      "SJoin" -> (() => new SJoinEngine(w.query, s.kGraph, s.seed, trackFullJoin = false)))) {
      val r = feed(mk().updateOnly, w.stream, s.budgetSec, 1 to w.stream.size)
      val nanos = Array.tabulate(r.atMarks.length)(i => r.atMarks(i) - (if (i == 0) 0L else r.atMarks(i - 1)))
      val sorted = nanos.sorted
      def us(x: Long) = f"${x / 1e3}%.1f"
      rows += Seq(name,
        nanos.length.toString + (if (r.dnf) " (DNF)" else ""),
        us((sorted.map(BigInt(_)).sum / math.max(1, sorted.length)).toLong),
        us(percentile(sorted, 0.50)), us(percentile(sorted, 0.90)),
        us(percentile(sorted, 0.99)), us(percentile(sorted, 0.999)),
        us(if (sorted.isEmpty) 0 else sorted.last))
    }
    renderTable(
      Seq("engine", "tuples", "avg us", "p50 us", "p90 us", "p99 us", "p99.9 us", "max us"),
      rows.toSeq)
  }

  // -------------------------------------------------------------------------
  // T3 (Fig. 7): cumulative runtime + join size vs input fraction (line-3)
  // -------------------------------------------------------------------------

  /** Exact line-3 join size over a prefix of the aliased edge stream, via the
    * factorization |Q| = Σ_{(u,v)∈G2} indeg_{G1}(u)·outdeg_{G3}(v).
    */
  def line3JoinSize(prefix: Seq[(String, Array[Long])]): Long = {
    val in1 = mutable.HashMap.empty[Long, Long].withDefaultValue(0L)
    val out3 = mutable.HashMap.empty[Long, Long].withDefaultValue(0L)
    val g2 = ArrayBuffer.empty[(Long, Long)]
    for ((rel, t) <- prefix) rel match {
      case "g1" => in1(t(1)) += 1
      case "g2" => g2 += ((t(0), t(1)))
      case "g3" => out3(t(0)) += 1
      case _    => ()
    }
    g2.iterator.map { case (u, v) => in1(u) * out3(v) }.sum
  }

  def t3InputJoinSize(s: Scale, k: Int = 1000): String = {
    val w = graphWorkload("line3", s)
    val stream = w.stream
    val n = stream.size
    val checkpoints = (1 to 10).map(i => n * i / 10)
    val rows = ArrayBuffer.empty[Seq[String]]

    def cumulative(mk: () => SamplingEngine): Seq[Option[Double]] = {
      val r = feed(mk().insert, stream, s.budgetSec, checkpoints)
      checkpoints.indices.map(i => r.atMarks.lift(i).map(_ / 1e9))
    }

    val rs = cumulative(() => new ReservoirJoinEngine(w.query, k, s.seed, trackFullJoin = false))
    val sj = cumulative(() => new SJoinEngine(w.query, k, s.seed, trackFullJoin = false))
    for ((cp, idx) <- checkpoints.zipWithIndex) {
      rows += Seq(s"${(idx + 1) * 10}%", cp.toString,
        line3JoinSize(stream.take(cp)).toString,
        rs(idx).map(t => f"$t%.3f").getOrElse("DNF"),
        sj(idx).map(t => f"$t%.3f").getOrElse("DNF"))
    }
    renderTable(Seq("input", "tuples", "join size", "RSJoin s", "SJoin s"), rows.toSeq)
  }

  // -------------------------------------------------------------------------
  // T4 (Fig. 8): runtime vs sample size k (line-3)
  // -------------------------------------------------------------------------

  def t4SampleSize(s: Scale, ks: Seq[Int]): String = {
    val w = graphWorkload("line3", s)
    val rows = for (k <- ks) yield {
      val rsR = feed(new ReservoirJoinEngine(w.query, k, s.seed, trackFullJoin = false).insert,
        w.stream, s.budgetSec)
      val sjR = feed(new SJoinEngine(w.query, k, s.seed, trackFullJoin = false).insert,
        w.stream, s.budgetSec)
      Seq(k.toString, rsR.pretty, sjR.pretty)
    }
    renderTable(Seq("k", "RSJoin", "SJoin"), rows) +
      s"\n(input tuples N = ${w.stream.size})"
  }

  // -------------------------------------------------------------------------
  // T5 (Fig. 9, the typeset table): optimizations on QZ
  // -------------------------------------------------------------------------

  def t5Optimizations(s: Scale): String = {
    val w = relWorkload("qz", s)
    val all = w.preload ++ w.stream
    val rows = ArrayBuffer.empty[Seq[String]]
    // `updateOnly` feeds a fresh engine with sampling disabled: at
    // reproduction scale the total is sampling-dominated, so the
    // index-maintenance effect of the optimizations (what Fig. 9 is about)
    // shows up there.
    def row(name: String, mk: () => SamplingEngine,
            updateOnly: () => (String, Array[Long]) => Unit): Unit = {
      val engine = mk()
      val r = feed(engine.insert, all, s.budgetSec * 3)
      val r2 = feed(updateOnly(), all, s.budgetSec * 3)
      rows += Seq(name, engine.propagations.toString, engine.edgePropagations.toString,
        r.pretty, r2.pretty)
    }
    def plain() = new ReservoirJoinEngine(w.query, s.kRel, s.seed, trackFullJoin = false)
    def opt(grouping: Boolean) =
      FkEngine.rs(w.query, w.fks, s.kRel, s.seed, grouping, trackFullJoin = false)
    row("N/A", () => plain(), () => plain().updateOnly)
    row("Foreign-key", () => opt(false), () => opt(false).updateOnly)
    row("Foreign-key + Grouping", () => opt(true), () => opt(true).updateOnly)
    renderTable(Seq("optimizations", "#propagations", "#edge propagations", "run-time",
      "update-only"), rows.toSeq)
  }

  // -------------------------------------------------------------------------
  // T6 (Fig. 10): scalability of QZ across scale factors
  // -------------------------------------------------------------------------

  def t6Scalability(s: Scale, sfs: Seq[Double]): String = {
    val rows = for (sf <- sfs) yield {
      val w = StreamGen.qz(sf, s.seed)
      val all = w.preload ++ w.stream
      val rs = feed(new ReservoirJoinEngine(w.query, s.kRel, s.seed, trackFullJoin = false).insert,
        all, s.budgetSec * 3)
      val opt = feed(
        FkEngine.rs(w.query, w.fks, s.kRel, s.seed, grouping = true, trackFullJoin = false).insert,
        all, s.budgetSec * 3)
      Seq(sf.toString, all.size.toString, rs.pretty, opt.pretty)
    }
    renderTable(Seq("SF", "tuples", "RSJoin", "RSJoin_opt"), rows)
  }

  // -------------------------------------------------------------------------
  // T7 (Fig. 11): memory vs input fraction
  // -------------------------------------------------------------------------

  def t7Memory(s: Scale): String = {
    val sb = new StringBuilder()
    // line-3: RSJoin vs SJoin
    locally {
      val w = graphWorkload("line3", s)
      val tenths = (1 to 10).map(w.stream.size * _ / 10)
      // Index KiB at each tenth reached within the budget, engine by engine.
      def kib(e: SamplingEngine): Seq[Option[Long]] = {
        val at = ArrayBuffer.empty[Long]
        feed(e.insert, w.stream, s.budgetSec, tenths, _ => at += e.approxBytes / 1024)
        tenths.indices.map(at.lift)
      }
      val rs = kib(new ReservoirJoinEngine(w.query, s.kGraph, s.seed, trackFullJoin = false))
      val sj = kib(new SJoinEngine(w.query, s.kGraph, s.seed, trackFullJoin = false))
      val rows = tenths.indices.map { i =>
        Seq(s"${(i + 1) * 10}%", rs(i).fold("DNF")(_.toString), sj(i).fold("DNF")(_.toString))
      }
      sb ++= "line-3 (index KiB):\n"
      sb ++= renderTable(Seq("input", "RSJoin KiB", "SJoin KiB"), rows)
    }
    // Q10: the _opt engines
    locally {
      val w = relWorkload("q10", s)
      val all = w.preload ++ w.stream
      val rs = FkEngine.rs(w.query, w.fks, s.kRel, s.seed, grouping = true, trackFullJoin = false)
      val sj = FkEngine.sj(w.query, w.fks, s.kRel, s.seed, trackFullJoin = false)
      val r1 = feed(rs.insert, all, s.budgetSec)
      val r2 = feed(sj.insert, all, s.budgetSec)
      sb ++= "\n\nQ10 (final index KiB):\n"
      sb ++= renderTable(Seq("engine", "KiB", "status"), Seq(
        Seq("RSJoin_opt", (rs.approxBytes / 1024).toString, r1.pretty),
        Seq("SJoin_opt", (sj.approxBytes / 1024).toString, r2.pretty)))
    }
    sb.toString
  }

  // -------------------------------------------------------------------------
  // T8/T9 (Figs. 12–13): reservoir sampling with predicate on string streams
  // -------------------------------------------------------------------------

  def t8RswpProgress(n: Int = 100000, len: Int = 256, tau: Int = 16,
                     density: Double = 0.1, k: Int = 1000, seed: Long = 42): String = {
    val cuts = (1 to 10).map(i => n * i / 10)
    // Each algorithm runs once over the stream; the clock is read at each tenth.
    // RSWP takes the tenths as ten batches of one reservoir, which carries its
    // pending skip across them and so draws the sample of one batch.
    def progress(seed: Long): (IndexedSeq[Long], IndexedSeq[Long]) = {
      val (base, items) = StringStream.generate(n, len, tau, density, seed)
      val theta = (x: String) => EditDistance.within(base, x, tau)
      val tenths = (0 +: cuts).zip(cuts).map { case (a, b) => Batch.fromSeq(items.slice(a, b), theta) }
      val rswp = new BatchReservoir[String](k, new Rng(seed))
      val t0 = System.nanoTime()
      val rswpAt = tenths.map { b => rswp.update(b); System.nanoTime() - t0 }
      val rsAt = new Array[Long](cuts.length)
      val t1 = System.nanoTime()
      PredicateReservoir.naive(clocked(items, cuts, rsAt), k, theta, new Rng(seed))
      (rswpAt, rsAt.toIndexedSeq.map(_ - t1))
    }
    // One untimed pass of both over a separately seeded stream of the same
    // shape first, so that neither pays the predicate's JIT warm-up.
    progress(~seed)
    val (rswpAt, rsAt) = progress(seed)
    val rows = cuts.indices.map(i => Seq(s"${(i + 1) * 10}%", cuts(i).toString,
      f"${rswpAt(i) / 1e9}%.3f", f"${rsAt(i) / 1e9}%.3f"))
    renderTable(Seq("input", "items", "RSWP s", "RS s"), rows)
  }

  /** `items` in order, writing `System.nanoTime` into `at(j)` once the
    * first `cuts(j)` items have been consumed.
    */
  private def clocked[A](items: IndexedSeq[A], cuts: IndexedSeq[Int], at: Array[Long]): Iterator[A] =
    new Iterator[A] {
      private var i = 0
      private var m = 0
      def hasNext: Boolean = {
        while (m < cuts.length && cuts(m) == i) { at(m) = System.nanoTime(); m += 1 }
        i < items.length
      }
      def next(): A = { val x = items(i); i += 1; x }
    }

  def t9RswpDensity(n: Int = 50000, len: Int = 256, tau: Int = 16,
                    k: Int = 500, seed: Long = 42): String = {
    val rows = for (d10 <- 0 to 10) yield {
      val density = d10 / 10.0
      val (base, items) = StringStream.generate(n, len, tau, density, seed + d10)
      val theta = (x: String) => EditDistance.within(base, x, tau)
      val (_, tRswp) = time(PredicateReservoir.run(items, k, theta, new repro.core.Rng(1)))
      val (_, tRs) = time(PredicateReservoir.naive(items, k, theta, new repro.core.Rng(1)))
      Seq(f"$density%.1f", f"$tRswp%.3f", f"$tRs%.3f", f"${tRs / math.max(tRswp, 1e-9)}%.1fx")
    }
    renderTable(Seq("density", "RSWP s", "RS s", "speedup"), rows)
  }
}
