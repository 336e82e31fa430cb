package repro.data

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

import repro.core.{JoinQuery, Rng}
import repro.core.fk.FkSpec
import repro.queries.Queries

/** A streaming workload: a query, its FK plan (possibly empty), preloaded
  * static tuples (inserted first, like the paper's pre-loaded dimension
  * tables) and the timed tuple stream.
  */
final case class Workload(
    name: String,
    query: JoinQuery,
    fks: Seq[FkSpec],
    preload: Vector[(String, Array[Long])],
    stream: Vector[(String, Array[Long])],
)

/** Deterministic pure-Scala generators for every dataset in the evaluation.
  * Spark-side DataFrames over the same tuples come from
  * [[repro.SynthDataX]], so the DuckDB oracle sees identical inputs.
  */
object StreamGen {

  /** Fisher–Yates shuffle (deterministic in `rng`). */
  def shuffle[A](xs: collection.IndexedSeq[A], rng: Rng): Vector[A] = shuffled(xs.toArray[Any], rng)

  /** [[shuffle]] in place: the same draws give the same permutation. */
  private def permute(a: Array[Any], rng: Rng): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }

  /** `a`, shuffled in place, as a `Vector`. */
  private def shuffled[A](a: Array[Any], rng: Rng): Vector[A] = {
    permute(a, rng)
    vector(a)
  }

  /** The elements of `a`, copied once into a `Vector`. */
  private def vector[A](a: Array[Any]): Vector[A] = ArraySeq.unsafeWrapArray(a).toVector.asInstanceOf[Vector[A]]

  /** A set of at most `most` positive `Long` codes: open addressing with
    * linear probing over a table (0 empty) at most half full.
    */
  private final class CodeSet(most: Int) {
    private val bits = 64 - java.lang.Long.numberOfLeadingZeros(math.max(2L * most, 4L) - 1)
    private val table = new Array[Long](1 << bits)
    private val mask = table.length - 1

    /** Add `code`; false if it is already present. */
    def add(code: Long): Boolean = {
      var h = ((code * 0x9e3779b97f4a7c15L) >>> (64 - bits)).toInt
      while (table(h) != 0) {
        if (table(h) == code) return false
        h = (h + 1) & mask
      }
      table(h) = code
      true
    }
  }

  /** Synthetic Epinions-like directed graph: `m` distinct edges over `n`
    * nodes with power-law-ish degree skew (substitute for the SNAP dataset —
    * see DESIGN.md).
    */
  def graphEdges(m: Int, n: Int, seed: Long, skew: Double = 2.0): Vector[(Long, Long)] = {
    require(m.toLong * 2 <= n.toLong * (n - 1),
      s"cannot draw $m distinct directed edges over $n nodes without near-exhaustion")
    val rng = new Rng(seed)
    val seen = new CodeSet(m)
    val out = new Array[Any](m)
    var got = 0
    def node(): Long = 1L + (n * math.pow(rng.nextDouble(), skew)).toLong.min(n - 1L)
    while (got < m) {
      val src = node()
      val dst = node()
      if (src != dst && seen.add(src * (n + 1L) + dst)) { out(got) = (src, dst); got += 1 }
    }
    vector(out)
  }

  /** Stream k independently shuffled copies of the edge list (one per alias),
    * globally interleaved in random order — the paper's graph-query setup.
    * Each copy is shuffled in one reused array.
    */
  private def aliasedEdgeStream(aliases: Seq[String], edges: Vector[(Long, Long)],
                                seed: Long): Vector[(String, Array[Long])] = {
    val rng = new Rng(seed)
    val es = edges.toArray
    val m = es.length
    val order = new Array[Any](m)
    val all = new Array[Any](aliases.size * m)
    var at = 0
    for (a <- aliases) {
      var i = 0
      while (i < m) { order(i) = es(i); i += 1 }
      permute(order, rng)
      i = 0
      while (i < m) {
        val e = order(i).asInstanceOf[(Long, Long)]
        all(at) = (a, Array(e._1, e._2)); at += 1; i += 1
      }
    }
    shuffled(all, rng)
  }

  def lineK(k: Int, edges: Vector[(Long, Long)], seed: Long): Workload = {
    val q = Queries.lineK(k)
    Workload(q.name, q, Nil, Vector.empty,
      aliasedEdgeStream((1 to k).map(i => s"g$i"), edges, seed))
  }

  def starK(k: Int, edges: Vector[(Long, Long)], seed: Long): Workload = {
    val q = Queries.starK(k)
    Workload(q.name, q, Nil, Vector.empty,
      aliasedEdgeStream((1 to k).map(i => s"g$i"), edges, seed))
  }

  /** Dumbbell stream over 7 edge aliases (query is cyclic; consumed by the
    * GHD engine).
    */
  def dumbbell(edges: Vector[(Long, Long)], seed: Long): Vector[(String, Array[Long])] =
    aliasedEdgeStream((1 to 7).map(i => s"g$i"), edges, seed)

  // -------------------------------------------------------------------------
  // TPC-DS-lite
  // -------------------------------------------------------------------------

  /** Deterministic TPC-DS-lite tables at scale `sf` (sf=1 ≈ thousands of
    * rows; benches use sf≈1–10, tests sf≈0.05).
    */
  final case class TpcdsLite(
      items: Vector[Array[Long]],     // (item_sk, cat, pay)
      hds: Vector[Array[Long]],       // (hdemo_sk, income, pay)
      customers: Vector[Array[Long]], // (cust_sk, hdemo, pay)
      sales: Vector[Array[Long]],     // (cust, item, pay)
  )

  def tpcdsLite(sf: Double, seed: Long): TpcdsLite = {
    val rng = new Rng(seed)
    val nI = math.max(12, (180 * sf).toInt)
    val nD = math.max(10, (72 * sf).toInt)
    val nC = math.max(40, (1000 * sf).toInt)
    val nS = math.max(100, (2880 * sf).toInt)
    // As in TPC-DS, income bands and item categories are *fixed-cardinality*
    // dimensions (20 bands, ~10 categories) independent of the scale factor —
    // this is what makes the grouping optimization compress so well (Fig. 9).
    val nInc = math.max(4, math.min(20, nD / 2))
    val nCat = math.max(3, math.min(10, nI / 4))
    val items = Vector.tabulate(nI)(i =>
      Array(i + 1L, 1L + rng.nextInt(nCat), rng.nextLong(1000)))
    val hds = Vector.tabulate(nD)(i =>
      Array(i + 1L, 1L + rng.nextInt(nInc), rng.nextLong(1000)))
    val customers = Vector.tabulate(nC)(i =>
      Array(i + 1L, 1L + rng.nextInt(nD), rng.nextLong(1000)))
    val sales = Vector.tabulate(nS) { _ =>
      // Mild skew on the customer key, as in real store_sales.
      val cust = 1L + (nC * math.pow(rng.nextDouble(), 1.5)).toLong.min(nC - 1L)
      Array(cust, 1L + rng.nextInt(nI), rng.nextLong(1000))
    }
    TpcdsLite(items, hds, customers, sales)
  }

  /** Workload for QX/QY/QZ: d1/d2/i1/i2 (dimensions) pre-loaded, ss/c1/c2
    * streamed shuffled — the paper's TPC-DS setup.
    */
  def tpcds(query: JoinQuery, fks: Seq[FkSpec], sf: Double, seed: Long): Workload = {
    val data = tpcdsLite(sf, seed)
    val rng = new Rng(seed ^ 0x5eed)
    val rels = query.relations.map(_.name).toSet
    val pre = new ArrayBuffer[(String, Array[Long])]
    if (rels("d1")) for (t <- data.hds) pre += (("d1", t))
    if (rels("d2")) for (t <- data.hds) pre += (("d2", t))
    if (rels("i1")) for (t <- data.items) pre += (("i1", t))
    if (rels("i2")) for (t <- data.items) pre += (("i2", t))
    val parts = ("ss" -> data.sales) +: Seq("c1", "c2").filter(rels).map(_ -> data.customers)
    val streamed = new Array[Any](parts.map(_._2.size).sum)
    var at = 0
    for ((r, ts) <- parts; t <- ts) { streamed(at) = (r, t); at += 1 }
    Workload(query.name, query, fks, pre.toVector, shuffled(streamed, rng))
  }

  def qx(sf: Double, seed: Long): Workload = tpcds(Queries.qx, Queries.qxFks, sf, seed)
  def qy(sf: Double, seed: Long): Workload = tpcds(Queries.qy, Queries.qyFks, sf, seed)
  def qz(sf: Double, seed: Long): Workload = tpcds(Queries.qz, Queries.qzFks, sf, seed)

  // -------------------------------------------------------------------------
  // LDBC-SNB-lite (BI Q10)
  // -------------------------------------------------------------------------

  def q10(sf: Double, seed: Long): Workload = {
    val rng = new Rng(seed)
    val nCountry = 12
    val nCity = math.max(10, (25 * sf).toInt)
    val nTagClass = 8
    val nTag = math.max(12, (60 * sf).toInt)
    val nPerson = math.max(20, (150 * sf).toInt)
    val nMessage = math.max(60, (900 * sf).toInt)
    val nHasTag = math.max(100, (1500 * sf).toInt)
    val nKnows = math.max(40, (500 * sf).toInt)

    val countries = (1 to nCountry).map(i => Array(i.toLong, rng.nextLong(100))).toVector
    val cities = (1 to nCity).map(i =>
      Array(i.toLong, 1L + rng.nextInt(nCountry), rng.nextLong(100))).toVector
    val tagclasses = (1 to nTagClass).map(i => Array(i.toLong, rng.nextLong(100))).toVector
    val tags = (1 to nTag).map(i =>
      Array(i.toLong, 1L + rng.nextInt(nTagClass), rng.nextLong(100))).toVector
    val persons = (1 to nPerson).map(i =>
      Array(i.toLong, 1L + rng.nextInt(nCity), rng.nextLong(100))).toVector
    val messages = (1 to nMessage).map(i =>
      Array(i.toLong, 1L + rng.nextInt(nPerson))).toVector
    /** `count` distinct pairs `(a, b)`, `a` in `[1, na]` and `b` in `[1, nb]`, with `a ≠ b` if `loopFree`. */
    def pairs(count: Int, na: Int, nb: Int, loopFree: Boolean) = {
      val seen = new CodeSet(count)
      val out = new ArrayBuffer[Array[Long]](count)
      while (out.length < count) {
        val a = 1L + rng.nextInt(na)
        val b = 1L + rng.nextInt(nb)
        if ((!loopFree || a != b) && seen.add(a * (nb + 1L) + b)) out += Array(a, b)
      }
      out
    }
    val ht = pairs(nHasTag, nMessage, nTag, loopFree = false) // both aliases stream the same hasTag table
    val kn = pairs(nKnows, nPerson, nPerson, loopFree = true)

    val pre = new ArrayBuffer[(String, Array[Long])]
    for (t <- tags) { pre += (("tag1", t)); pre += (("tag2", t)) }
    for (t <- tagclasses) pre += (("tagclass", t))
    for (t <- cities) pre += (("city", t))
    for (t <- countries) pre += (("country", t))

    val streamed = new ArrayBuffer[(String, Array[Long])]
    for (t <- messages) streamed += (("message", t))
    for (t <- ht) { streamed += (("hastag1", t)); streamed += (("hastag2", t)) }
    for (t <- persons) { streamed += (("person1", t)); streamed += (("person2", Array(t(0), t(2)))) }
    for (t <- kn) streamed += (("knows", t))

    Workload("q10", Queries.q10, Queries.q10Fks, pre.toVector, shuffle(streamed, rng))
  }
}
