package repro.bench

/** Timing/budget plumbing shared by the jobs and the bench suites. */
object BenchUtil {

  /** Outcome of feeding a workload into an engine under a wall-clock budget.
    * `dnf` mirrors the paper's 12-hour-timeout bars: the run was cut off
    * after `seconds` with `processed` of `total` tuples done.
    */
  final case class FeedResult(seconds: Double, dnf: Boolean, processed: Int, total: Int) {
    def pretty: String =
      if (dnf) f"DNF(>$seconds%.1fs @ $processed/$total)" else f"$seconds%.3fs"
  }

  /** Feed `tuples` through `step` (an engine's `insert`, or its index-only
    * update), checking the budget every 512 tuples.
    */
  def feedTimed(step: (String, Array[Long]) => Unit, tuples: Seq[(String, Array[Long])],
                budgetSec: Double): FeedResult = {
    val t0 = System.nanoTime()
    val budgetNanos = (budgetSec * 1e9).toLong
    var i = 0
    val n = tuples.size
    val it = tuples.iterator
    while (it.hasNext) {
      val (rel, t) = it.next()
      step(rel, t)
      i += 1
      if ((i & 511) == 0 && System.nanoTime() - t0 > budgetNanos)
        return FeedResult((System.nanoTime() - t0) / 1e9, dnf = true, i, n)
    }
    FeedResult((System.nanoTime() - t0) / 1e9, dnf = false, i, n)
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
