package repro.core

/** Power-of-two arithmetic for the approximate-degree machinery of Section 4.
  *
  * Degrees (`cnt~` values) are always 0 or an exact power of two; products of
  * degrees can overflow Long for wide queries on large data, so
  * multiplication and rounding fail loudly past 2^61: a capped degree,
  * count or `|ΔJ|` would bias the sample without a trace.
  */
object Pow2 {

  /** The largest value `mulCap` and `ceilPow2` return: a power of two small
    * enough that sums of a few such values still cannot overflow Long.
    */
  val Cap: Long = 1L << 61

  /** Smallest power of two ≥ x (x ≥ 1). ceilPow2(0) = 0 by convention:
    * an empty subtree contributes no join results and lives in no bucket.
    *
    * @throws ArithmeticException if x exceeds `Cap`
    */
  def ceilPow2(x: Long): Long = {
    require(x >= 0, s"ceilPow2 of negative $x")
    if (x == 0) 0L
    else if (x > Cap) throw new ArithmeticException(s"count $x exceeds 2^61")
    else if (isPow2(x)) x
    else java.lang.Long.highestOneBit(x) << 1
  }

  def isPow2(x: Long): Boolean = x > 0 && (x & (x - 1)) == 0

  /** log2 of an exact power of two. */
  def log2(x: Long): Int = {
    require(isPow2(x), s"log2 of non-power-of-two $x")
    java.lang.Long.numberOfTrailingZeros(x)
  }

  /** Product of two non-negative counts, at most `Cap`.
    *
    * @throws ArithmeticException if the product exceeds `Cap`
    */
  def mulCap(a: Long, b: Long): Long = {
    if (a == 0 || b == 0) 0L
    else if (a > Cap / b) throw new ArithmeticException(s"count product $a * $b exceeds 2^61")
    else a * b
  }
}
