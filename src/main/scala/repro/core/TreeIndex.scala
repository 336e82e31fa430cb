package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import Pow2._
import Proj.{JoinRow, Tup}
import repro.core.baseline.Fenwick

/** Shared instrumentation across the rooted trees of one engine. */
final class EngineCounters extends Serializable {
  /** Executions of the propagation loop (lines 9–11 of Algorithm 7) — the
    * quantity reported in the Fig. 9 optimizations table.
    */
  var propagations: Long = 0L
}

/** One position-addressable bucket `Φ_i` of Section 4: the member ids
  * (tuple ids, or group ids for grouped nodes) whose approximate degree is
  * `2^i`. Supports O(1) append, O(1) swap-remove, O(1) positional access.
  */
final class Bucket extends Serializable {
  val ids = new ArrayBuffer[Int](4)
  private val pos = mutable.HashMap.empty[Int, Int]

  def size: Int = ids.length
  def apply(j: Int): Int = ids(j)
  def add(id: Int): Unit = { pos(id) = ids.length; ids += id }
  def remove(id: Int): Unit = {
    val p = pos.remove(id).getOrElse(
      throw new IllegalStateException(s"bucket does not contain member $id"))
    val last = ids.length - 1
    if (p != last) { val moved = ids(last); ids(p) = moved; pos(moved) = p }
    ids.remove(last)
  }
}

/** Per-key state of one node: the exact sum `cnt` of its members' degrees,
  * and the structure that maps a position in `[0, cnt)` to the member owning
  * it. The index's [[CountPolicy]] picks the structure.
  */
sealed abstract class KeyState extends Serializable {
  var cnt: Long = 0L

  /** Member `id`'s degree changed from `old` to `now` (`old` = 0 if the
    * member is new); `cnt` is the caller's to adjust.
    */
  def reweigh(id: Int, old: Long, now: Long): Unit

  /** The member owning position `z` (`0 ≤ z < cnt`); `offset(0)` receives
    * z's offset within that member's positions.
    */
  def locate(z: Long, offset: Array[Long]): Int

  /** Every member with its stored degree (for `checkInvariants`). */
  def weights: Iterator[(Int, Long)]

  def approxBytes: Long
}

/** `Pow2` key state (Section 4): the non-empty buckets `Φ_i` keyed by
  * exponent, so that `cnt = Σ_i 2^i · |Φ_i|`.
  */
final class BucketKeyState extends KeyState {
  val buckets = new java.util.TreeMap[Integer, Bucket]()

  def reweigh(id: Int, old: Long, now: Long): Unit = {
    if (old > 0) {
      val i = log2(old)
      val b = buckets.get(i)
      require(b != null, s"no bucket at exponent $i")
      b.remove(id)
      if (b.size == 0) buckets.remove(i)
    }
    if (now > 0) {
      val i = log2(now)
      var b = buckets.get(i)
      if (b == null) { b = new Bucket; buckets.put(i, b) }
      b.add(id)
    }
  }

  def locate(z: Long, offset: Array[Long]): Int = {
    // Ascending exponent scan; there are O(|T_e| log N) non-empty buckets.
    var prefix = 0L
    val it = buckets.entrySet().iterator()
    while (it.hasNext) {
      val e = it.next()
      val i = e.getKey.intValue()
      val width = (1L << i) * e.getValue.size
      if (z < prefix + width) {
        val j = ((z - prefix) >> i).toInt
        offset(0) = (z - prefix) - (j.toLong << i)
        return e.getValue.apply(j)
      }
      prefix += width
    }
    throw new IllegalArgumentException(s"position $z beyond bucket contents (cnt=$cnt)")
  }

  def weights: Iterator[(Int, Long)] =
    buckets.entrySet().iterator().asScala.flatMap { e =>
      e.getValue.ids.iterator.map(_ -> (1L << e.getKey.intValue()))
    }

  def approxBytes: Long = {
    var bytes = 0L
    val it = buckets.values().iterator()
    while (it.hasNext) bytes += 64L + it.next().size.toLong * 40L
    bytes
  }
}

/** `Exact` key state (SJoin): every member holds a Fenwick slot in arrival
  * order, weighted by its exact degree, so `cnt` is the Fenwick total.
  */
final class FenwickKeyState extends KeyState {
  val members = new ArrayBuffer[Int](4)
  val memberPos = mutable.HashMap.empty[Int, Int]
  val fen = new Fenwick

  def reweigh(id: Int, old: Long, now: Long): Unit = memberPos.get(id) match {
    case Some(p) => if (now != old) fen.add(p, now - old)
    case None =>
      memberPos(id) = members.length
      members += id
      fen.append(now)
  }

  def locate(z: Long, offset: Array[Long]): Int = {
    val (slot, ell) = fen.search(z)
    offset(0) = ell
    members(slot)
  }

  def weights: Iterator[(Int, Long)] = members.indices.iterator.map(s => members(s) -> fen.weight(s))

  def approxBytes: Long = members.length.toLong * (8L + 48L + 8L) // slot + pos entry + fenwick cell
}

/** How a [[TreeIndex]] counts. `Pow2` (RSJoin) multiplies a parent's degree
  * by `cnt~ = ceilPow2(cnt)` of each child key and buckets members by their
  * power-of-two degree, so a count propagates only when `cnt~` doubles.
  * `Exact` (SJoin) multiplies by `cnt` itself and keeps members in a Fenwick
  * tree, so every count change propagates and batches hold no dummies. The
  * engine class picks the policy.
  */
private[core] sealed abstract class CountPolicy extends Serializable {
  /** The factor a parent's degree takes from a child key with count `cnt`. */
  def round(cnt: Long): Long

  def newKeyState(): KeyState

  /** Whether a member whose degree did not change may be skipped. `Exact`
    * may not: a new member takes its Fenwick slot on arrival, even at degree
    * 0, so that slot order is arrival order.
    */
  def skipsUnchanged: Boolean
}

private[core] object CountPolicy {
  case object Pow2 extends CountPolicy {
    def round(cnt: Long): Long = ceilPow2(cnt)
    def newKeyState(): KeyState = new BucketKeyState
    def skipsUnchanged: Boolean = true
  }

  case object Exact extends CountPolicy {
    def round(cnt: Long): Long = cnt
    def newKeyState(): KeyState = new FenwickKeyState
    def skipsUnchanged: Boolean = false
  }
}

/** The dynamic index of Section 4 for one rooted join tree, under a
  * [[CountPolicy]]: `Pow2` for RSJoin, `Exact` for the SJoin baseline.
  *
  * Unlike the paper (whose root holds no structure), the root also maintains
  * a key state under the empty key, so `cnt[T, root, ()]` is the size of a
  * dense implicit array over the *full* `Q(R)` — this is what backs
  * [[FullJoinSampler]] (operation (2) of Theorem 4.2). Propagation into the
  * root costs the same amortized O(log N) as any other node.
  *
  * With `grouping` enabled, non-root internal nodes whose attributes strictly
  * contain the join attributes `ē = key(e) ∪ ⋃ key(child)` operate on the
  * grouped view `π_ē R_e` with multiplicities `feq` (Section 4.4,
  * Algorithms 10–11).
  */
final class TreeIndex(
    val tree: RootedTree,
    stores: Vector[RelationStore],
    grouping: Boolean,
    counters: EngineCounters,
    trackRoot: Boolean,
    private[core] val policy: CountPolicy,
) extends Serializable {

  private val q = tree.query
  private val n = q.arity

  /** Second result of [[KeyState.locate]]. */
  private val offset = new Array[Long](1)

  final class Node(val rel: Int) extends Serializable {
    val isRoot: Boolean = rel == tree.root
    val children: Array[Int] = tree.children(rel).toArray
    val keyAttrs: Vector[String] = tree.key(rel)
    val baseSchema: RelSchema = q.relations(rel)

    /** Join attributes ē (in base-schema order). */
    val groupAttrs: Vector[String] = {
      val needed = keyAttrs.toSet ++ children.flatMap(c => tree.key(c))
      baseSchema.attrs.filter(needed.contains)
    }

    val grouped: Boolean =
      grouping && !isRoot && children.nonEmpty && groupAttrs.size < baseSchema.arity

    /** Schema of member tuples: the grouped view π_ē R_e, or R_e itself. */
    val memberSchema: RelSchema =
      if (grouped) RelSchema(baseSchema.name + "#g", groupAttrs) else baseSchema

    /** Group-view storage (grouped nodes only). */
    val gstore: RelationStore = if (grouped) new RelationStore(memberSchema) else null
    val feq: ArrayBuffer[Long] = if (grouped) new ArrayBuffer[Long] else null
    val groupIdOf: mutable.HashMap[IndexedSeq[Long], Int] =
      if (grouped) mutable.HashMap.empty else null

    // Projection position arrays, compiled once.
    val keyIdx: Array[Int] = memberSchema.idxOf(keyAttrs)
    val childKeyIdx: Array[Array[Int]] = children.map(c => memberSchema.idxOf(tree.key(c)))
    val rawChildKeyIdx: Array[Array[Int]] = children.map(c => baseSchema.idxOf(tree.key(c)))
    val groupIdx: Array[Int] = baseSchema.idxOf(groupAttrs)

    val byKey = mutable.HashMap.empty[IndexedSeq[Long], KeyState]

    def memberTuple(id: Int): Tup =
      if (grouped) gstore.tuples(id) else stores(rel).tuples(id)
  }

  val nodes: Array[Node] = Array.tabulate(n)(new Node(_))

  // Register the hash indexes each node needs:
  //  - the parent's member store, keyed by key(child), for update propagation;
  //  - for grouped nodes, the base store keyed by ē (the per-group raw lists).
  for (node <- nodes) {
    if (!node.isRoot) {
      val parent = nodes(tree.parent(node.rel))
      val pStore = if (parent.grouped) parent.gstore else stores(parent.rel)
      pStore.ensureIndex(node.keyAttrs)
    }
    if (node.grouped) stores(node.rel).ensureIndex(node.groupAttrs)
  }

  /** The exact `cnt[T, e, t]` — 0 when the key is absent. */
  def cntOf(rel: Int, key: IndexedSeq[Long]): Long = {
    val ks = nodes(rel).byKey.getOrElse(key, null)
    if (ks == null) 0L else ks.cnt
  }

  /** The count a parent multiplies by: `cnt~ = ceilPow2(cnt)` under `Pow2`,
    * `cnt` under `Exact`.
    */
  def cntTildeOf(rel: Int, key: IndexedSeq[Long]): Long = policy.round(cntOf(rel, key))

  /** Degree of a member: `feq~ · Π_child cnt~` (Section 4.3/4.4). */
  private def degreeOf(node: Node, memberId: Int): Long = {
    val t = node.memberTuple(memberId)
    var d = if (node.grouped) policy.round(node.feq(memberId)) else 1L
    var i = 0
    while (d > 0 && i < node.children.length) {
      d = mulCap(d, cntTildeOf(node.children(i), Proj.key(t, node.childKeyIdx(i))))
      i += 1
    }
    d
  }

  /** IndexUpdate (Algorithm 7 / Algorithm 10): member `memberId` of `node`
    * had degree `old` (0 if new); recompute, reweigh, adjust the key count,
    * and propagate upward if the rounded count changed.
    */
  private def update(node: Node, memberId: Int, old: Long): Unit = {
    val now = degreeOf(node, memberId)
    if (now == old && policy.skipsUnchanged) return
    val key = Proj.key(node.memberTuple(memberId), node.keyIdx)
    var ks = node.byKey.getOrElse(key, null)
    if (ks == null) { ks = policy.newKeyState(); node.byKey(key) = ks }
    ks.reweigh(memberId, old, now)
    val oldRounded = policy.round(ks.cnt)
    ks.cnt += now - old
    if (policy.round(ks.cnt) != oldRounded && !node.isRoot &&
        (trackRoot || !nodes(tree.parent(node.rel)).isRoot)) {
      val parent = nodes(tree.parent(node.rel))
      val pStore = if (parent.grouped) parent.gstore else stores(parent.rel)
      val members = pStore.lookup(node.keyAttrs, key)
      var m = 0
      while (m < members.length) {
        val pid = members(m)
        counters.propagations += 1
        val pt = parent.memberTuple(pid)
        var oldDeg = if (parent.grouped) policy.round(parent.feq(pid)) else 1L
        var ci = 0
        while (oldDeg > 0 && ci < parent.children.length) {
          val c = parent.children(ci)
          val factor =
            if (c == node.rel) oldRounded
            else cntTildeOf(c, Proj.key(pt, parent.childKeyIdx(ci)))
          oldDeg = mulCap(oldDeg, factor)
          ci += 1
        }
        update(parent, pid, oldDeg)
        m += 1
      }
    }
  }

  /** React to the insertion of base tuple `tupId` into relation `rel`
    * (the tuple is already in the store, all indexes updated).
    */
  def onInsert(rel: Int, tupId: Int): Unit = {
    val node = nodes(rel)
    if (node.isRoot && !trackRoot) {
      // The paper's index (Algorithm 7): the root holds no structure; only
      // trees with full-join tracking count root tuples under the ∅-key.
      ()
    } else if (!node.grouped) {
      update(node, tupId, 0L)
    } else {
      val t = stores(rel).tuples(tupId)
      val gKey = Proj.key(t, node.groupIdx)
      node.groupIdOf.get(gKey) match {
        case None =>
          val gid = node.gstore.insert(Proj.arr(t, node.groupIdx))
          node.groupIdOf(gKey) = gid
          node.feq += 1L
          update(node, gid, 0L)
        case Some(gid) =>
          val fOld = node.feq(gid)
          node.feq(gid) = fOld + 1
          if (policy.round(fOld + 1) != policy.round(fOld)) {
            // feq~ changed: the group's degree changes by exactly that factor.
            val t2 = node.memberTuple(gid)
            var oldDeg = policy.round(fOld)
            var ci = 0
            while (oldDeg > 0 && ci < node.children.length) {
              oldDeg = mulCap(oldDeg,
                cntTildeOf(node.children(ci), Proj.key(t2, node.childKeyIdx(ci))))
              ci += 1
            }
            update(node, gid, oldDeg)
          }
        // feq~ unchanged: cnt is untouched (it counts feq~, not feq).
      }
    }
  }

  // -------------------------------------------------------------------------
  // Batch generation + retrieval (Algorithms 8, 9, 11)
  // -------------------------------------------------------------------------

  private def putAttrs(out: mutable.HashMap[String, Long], schema: RelSchema, t: Tup): Unit = {
    var i = 0
    while (i < schema.arity) { out(schema.attrs(i)) = t(i); i += 1 }
  }

  /** Retrieve position `z` of the implicit array for key `key` at `node`
    * (Case 3 of Algorithm 9 / the grouped variant of Algorithm 11).
    * Returns false iff the position is a dummy.
    */
  private def retrieveKey(rel: Int, key: IndexedSeq[Long], z: Long,
                          out: mutable.HashMap[String, Long]): Boolean = {
    val node = nodes(rel)
    val ks = node.byKey.getOrElse(key, null)
    if (ks == null || z >= ks.cnt) return false // padding up to cnt~ is dummy
    val member = ks.locate(z, offset)
    val ell = offset(0)
    if (!node.grouped) {
      retrieveRaw(node, node.memberTuple(member), ell, out)
    } else {
      // Alg. 11 lines 19–23: pick which copy inside the group, dummies past feq.
      val gt = node.memberTuple(member)
      var h = 1L
      var ci = 0
      while (ci < node.children.length) {
        h = mulCap(h, cntTildeOf(node.children(ci), Proj.key(gt, node.childKeyIdx(ci))))
        ci += 1
      }
      val copy = ell / h
      if (copy >= node.feq(member)) return false
      // gt is already laid out in ē order, so it is its own lookup key.
      val rawIds = stores(rel).lookup(node.groupAttrs,
        scala.collection.immutable.ArraySeq.unsafeWrapArray(gt))
      val rawTup = stores(rel).tuples(rawIds(copy.toInt))
      retrieveRaw(node, rawTup, ell - copy * h, out)
    }
  }

  /** Retrieve within the sub-batch of one concrete base tuple: emit its
    * attributes and decompose the residual position over the children
    * (Case 2 of Algorithm 9). For leaves the residual is necessarily 0.
    */
  private def retrieveRaw(node: Node, t: Tup, z: Long,
                          out: mutable.HashMap[String, Long]): Boolean = {
    putAttrs(out, node.baseSchema, t)
    if (node.children.isEmpty) { require(z == 0, s"leaf residual $z"); return true }
    var rem = z
    var ci = node.children.length - 1
    while (ci >= 0) {
      val c = node.children(ci)
      val size = cntTildeOf(c, Proj.key(t, node.rawChildKeyIdx(ci)))
      val zi = rem % size
      rem = rem / size
      if (!retrieveKey(c, Proj.key(t, node.rawChildKeyIdx(ci)), zi, out)) return false
      ci -= 1
    }
    true
  }

  /** The implicit batch `ΔJ ⊇ ΔQ(R, t)` for a tuple just inserted into the
    * root relation of this tree: `{t} × Π_child ΔJ(child)`, with `|ΔJ|`
    * available in O(1) and positional retrieve in O(log N).
    *
    * The child array lengths use the exact per-key `cnt` (positions in
    * `[cnt, cnt~)` are always dummy padding, so truncating them keeps the
    * batch a superset of `ΔQ` while strictly improving density). This
    * matches the paper's two-table and line-3 cases, where `|ΔJ|` is
    * `cnt(b)·cnt(c)` exactly. Under `Exact`, `ΔJ = ΔQ`.
    */
  def deltaBatch(tupId: Int): Batch[JoinRow] = {
    val node = nodes(tree.root)
    val t = stores(tree.root).tuples(tupId)
    val m = node.children.length
    val sizes = new Array[Long](m)
    var total = 1L
    var ci = 0
    while (ci < m) {
      sizes(ci) = cntOf(node.children(ci), Proj.key(t, node.childKeyIdx(ci)))
      total = mulCap(total, sizes(ci))
      ci += 1
    }
    val tot = total
    new Batch[JoinRow] {
      val size: Long = tot
      def retrieve(z: Long): Option[JoinRow] = {
        require(z >= 0 && z < size, s"retrieve($z) out of [0, $size)")
        val out = mutable.HashMap.empty[String, Long]
        putAttrs(out, node.baseSchema, t)
        var rem = z
        var ok = true
        var i = m - 1
        while (ok && i >= 0) {
          val zi = rem % sizes(i)
          rem = rem / sizes(i)
          ok = retrieveKey(node.children(i), Proj.key(t, node.childKeyIdx(i)), zi, out)
          i -= 1
        }
        if (ok) Some(out.toMap) else None
      }
    }
  }

  /** Size of the implicit dense array over the full `Q(R)` (root ∅-key);
    * exactly `|Q(R)|` under `Exact`.
    */
  def fullCount: Long = {
    require(trackRoot, "fullCount requires trackFullJoin = true")
    cntOf(tree.root, Proj.emptyKey)
  }

  /** Position `z` of the full-join implicit array; None if dummy. */
  def retrieveFull(z: Long): Option[JoinRow] = {
    val out = mutable.HashMap.empty[String, Long]
    if (retrieveKey(tree.root, Proj.emptyKey, z, out)) Some(out.toMap) else None
  }

  /** Test-facing consistency check of every documented invariant: every
    * member's stored degree (its bucket's `2^i`, or its Fenwick weight)
    * equals its recomputed degree, members sit under their own key, `cnt` is
    * the sum of the stored degrees, and grouped nodes' `feq` equals the
    * raw-list length. Throws on violation.
    */
  def checkInvariants(): Unit = {
    for (node <- nodes) {
      for ((key, ks) <- node.byKey) {
        var sum = 0L
        for ((m, w) <- ks.weights) {
          val d = degreeOf(node, m)
          require(d == w,
            s"${q.name}/root=${tree.root}/rel=${node.rel}: member $m degree $d, stored $w")
          require(Proj.key(node.memberTuple(m), node.keyIdx) == key,
            s"member $m stored under wrong key")
          sum += w
        }
        require(sum == ks.cnt,
          s"${q.name}/root=${tree.root}/rel=${node.rel}/key=$key: cnt=${ks.cnt} != stored sum $sum")
      }
      if (node.grouped) {
        var totalFeq = 0L
        for (gid <- node.feq.indices) {
          val gt = node.memberTuple(gid)
          val raw = stores(node.rel).lookup(node.groupAttrs,
            scala.collection.immutable.ArraySeq.unsafeWrapArray(gt))
          require(raw.length.toLong == node.feq(gid),
            s"group $gid feq=${node.feq(gid)} != raw list ${raw.length}")
          totalFeq += node.feq(gid)
        }
        require(totalFeq == stores(node.rel).size,
          s"Σfeq=$totalFeq != relation size ${stores(node.rel).size}")
      }
    }
  }

  /** Rough structure-proportional memory accounting (Fig. 11). */
  def approxBytes: Long = {
    var bytes = 0L
    for (node <- nodes) {
      if (node.grouped) bytes += node.gstore.approxBytes + node.feq.length * 8L
      bytes += node.byKey.size.toLong * 96L
      for (ks <- node.byKey.valuesIterator) bytes += ks.approxBytes
    }
    bytes
  }
}
