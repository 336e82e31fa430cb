package repro.bench

/** Timing/budget plumbing shared by the jobs and the bench suites. */
object BenchUtil {

  /** Outcome of feeding a workload into an engine under a budget on the time
    * spent in the engine. `dnf` mirrors the paper's 12-hour-timeout bars: the
    * run was cut off after `seconds` with `processed` of `total` tuples done.
    * `atMarks(j)` is the engine time, in nanoseconds, once the first
    * `marks(j)` tuples were done; marks past a cut-off have no entry.
    */
  final case class FeedResult(seconds: Double, dnf: Boolean, processed: Int, total: Int,
                              atMarks: Array[Long]) {
    def pretty: String =
      if (dnf) f"DNF(>$seconds%.1fs @ $processed/$total)" else f"$seconds%.3fs"
  }

  /** Feed `tuples` through `step` (an engine's `insert`, or its index-only
    * update), timing only `step` and checking the budget against that time
    * every 512 tuples. At each of the ascending tuple counts `marks` (none by
    * default) the time so far is recorded, and then `atMark` runs with the
    * mark's index, outside the timed region.
    */
  def feed(step: (String, Array[Long]) => Unit, tuples: Seq[(String, Array[Long])], budgetSec: Double,
           marks: IndexedSeq[Int] = Vector.empty, atMark: Int => Unit = _ => ()): FeedResult = {
    val n = tuples.size
    require(marks.forall(m => m >= 1 && m <= n) && marks == marks.sorted,
      s"marks must ascend within [1, $n]")
    val budget = (budgetSec * 1e9).toLong
    val at = new Array[Long](marks.length)
    val it = tuples.iterator
    var spent = 0L
    var i = 0
    var m = 0
    var dnf = false
    while (i < n && !dnf) {
      val end = if (m < marks.length) marks(m) else n
      val t0 = System.nanoTime()
      while (i < end && !dnf) {
        val (rel, t) = it.next()
        step(rel, t)
        i += 1
        if ((i & 511) == 0 && spent + (System.nanoTime() - t0) > budget) dnf = true
      }
      spent += System.nanoTime() - t0
      while (!dnf && m < marks.length && marks(m) == i) { at(m) = spent; atMark(m); m += 1 }
    }
    FeedResult(spent / 1e9, dnf, i, n, java.util.Arrays.copyOf(at, m))
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def percentile(sorted: Array[Long], p: Double): Long =
    if (sorted.isEmpty) 0L
    else sorted(math.min(sorted.length - 1, (p * sorted.length).toInt))

  /** Fixed-width table renderer for the experiment reports. */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}
