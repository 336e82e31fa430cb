package rsjbench

/** Order statistics for every timing the benchmark reports. */
object Stats {

  /** Samples that must lie beyond a reported percentile, so that the
    * percentile is set by more than a handful of outliers.
    */
  val MinTail = 10

  /** Nearest-rank `p`-quantile of ascending `sorted`. Refuses a percentile
    * with fewer than [[MinTail]] samples beyond it (p75 needs 40 samples,
    * p99 needs 1,000).
    */
  def percentile(sorted: Array[Long], p: Double): Long = {
    require(p > 0 && p < 1, s"percentile $p outside (0, 1)")
    val n = sorted.length
    val rank = math.ceil(p * n - 1e-9).toInt.max(1)
    require(n - rank >= MinTail,
      f"p${p * 100}%.0f of $n samples leaves ${n - rank} beyond it; $MinTail needed")
    sorted(rank - 1)
  }

  /** Median of a few per-pass figures (mean of the middle two when even). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
