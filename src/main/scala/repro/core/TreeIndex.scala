package repro.core

import scala.collection.mutable

import Pow2._
import Proj.JoinRow
import repro.core.baseline.Fenwick

/** Shared instrumentation across the rooted trees of one engine. */
final class EngineCounters extends Serializable {
  /** Executions of the propagation loop (lines 9–11 of Algorithm 7), counted
    * tree by tree as if each rooted tree kept its own copy of every state —
    * the quantity reported in the Fig. 9 optimizations table.
    */
  var propagations: Long = 0L

  /** Executions of the propagation loop on the shared per-edge states: the
    * member updates actually performed.
    */
  var edgePropagations: Long = 0L
}

/** Per-key state of one [[EdgeState]]: each member's stored degree, their
  * exact sum `cnt`, and the structure that maps a position in `[0, cnt)` to
  * the member owning it. The index's [[CountPolicy]] picks the structure.
  *
  * The key states of one edge state share its [[Slots]]: a member id may be
  * passed to the key state of one key only, the key it projects to.
  */
sealed abstract class KeyState extends Serializable {
  var cnt: Long = 0L

  /** Member `id`'s stored degree (0 if it has none). */
  def degree(id: Int): Long

  /** Store `now` as member `id`'s degree, adjust `cnt`, and return the
    * degree stored before (0 if the member is new).
    */
  def set(id: Int, now: Long): Long

  /** The member owning position `z` (`0 ≤ z < cnt`); `offset(0)` receives
    * z's offset within that member's positions.
    */
  def locate(z: Long, offset: Array[Long]): Int

  /** Every member with its stored degree (for `checkInvariants`). */
  def weights: Iterator[(Int, Long)]

  def approxBytes: Long
}

/** Each member's slot in the key state of its key, indexed by member id (a
  * tuple id or a group id, both dense), or -1 for a member that has none.
  * One per [[EdgeState]], shared by all of its key states.
  */
private[core] final class Slots extends Serializable {
  private var slot = Array.fill(16)(-1L)

  def apply(id: Int): Long = if (id < slot.length) slot(id) else -1L

  def update(id: Int, v: Long): Unit = {
    if (id >= slot.length) {
      val n = slot.length
      slot = java.util.Arrays.copyOf(slot, Slots.grownLength(n, id + 1))
      java.util.Arrays.fill(slot, n, slot.length, -1L)
    }
    slot(id) = v
  }

  def approxBytes: Long = Bytes.Object + Bytes.longs(slot.length)
}

private[core] object Slots {
  /** The length to grow an array of `length` to so that it holds `need`
    * elements: at least double, capped at the largest array a store's ids
    * can index. Throws if `need` is past that cap.
    */
  def grownLength(length: Int, need: Int): Int = {
    if (need > RelationStore.MaxTuples)
      throw new IllegalStateException(s"array of $need elements exceeds ${RelationStore.MaxTuples}")
    math.min(math.max(length * 2L, need.toLong), RelationStore.MaxTuples.toLong).toInt
  }
}

/** `Pow2` key state (Section 4): the buckets `Φ_i` indexed by exponent, so
  * that `cnt = Σ_i 2^i · |Φ_i|`, with a `Long` mask of the non-empty ones
  * (exponents are at most 61). Each bucket is an `Int` array with O(1)
  * append, swap-remove and positional access; a member's slot in [[Slots]]
  * is its place `i << 32 | j`, slot `j` of `Φ_i`.
  */
final class BucketKeyState private[core] (slots: Slots) extends KeyState {
  /** `Φ_i` is `phi(i)(0 until len(i))`, or null when empty. Both arrays
    * reach the largest exponent used so far.
    */
  private var phi = new Array[Array[Int]](0)
  private var len = new Array[Int](0)

  /** Bit `i` is set iff `Φ_i` is non-empty. */
  private var mask = 0L

  def degree(id: Int): Long = {
    val p = slots(id)
    if (p < 0) 0L else 1L << (p >>> 32)
  }

  def set(id: Int, now: Long): Long = {
    val p = slots(id)
    val old = if (p < 0) 0L else 1L << (p >>> 32)
    if (now != old) {
      if (p >= 0) {
        val i = (p >>> 32).toInt
        val b = phi(i)
        val last = len(i) - 1
        val j = p.toInt
        if (j != last) { val moved = b(last); b(j) = moved; slots(moved) = p }
        len(i) = last
        if (last == 0) { phi(i) = null; mask &= ~(1L << i) }
      }
      if (now > 0) {
        val i = log2(now)
        if (i >= phi.length) {
          phi = java.util.Arrays.copyOf(phi, i + 1)
          len = java.util.Arrays.copyOf(len, i + 1)
        }
        var b = phi(i)
        if (b == null) { b = new Array[Int](4); phi(i) = b; mask |= 1L << i }
        else if (len(i) == b.length) {
          b = java.util.Arrays.copyOf(b, Slots.grownLength(b.length, b.length + 1))
          phi(i) = b
        }
        val j = len(i)
        b(j) = id
        len(i) = j + 1
        slots(id) = (i.toLong << 32) | j
      } else slots(id) = -1L
      cnt += now - old
    }
    old
  }

  def locate(z: Long, offset: Array[Long]): Int = {
    // Ascending exponent scan; there are O(|T_e| log N) non-empty buckets.
    var prefix = 0L
    var m = mask
    while (m != 0) {
      val i = java.lang.Long.numberOfTrailingZeros(m)
      val width = len(i).toLong << i
      if (z < prefix + width) {
        val j = ((z - prefix) >> i).toInt
        offset(0) = (z - prefix) - (j.toLong << i)
        return phi(i)(j)
      }
      prefix += width
      m &= m - 1
    }
    throw new IllegalArgumentException(s"position $z beyond bucket contents (cnt=$cnt)")
  }

  def weights: Iterator[(Int, Long)] =
    Iterator.range(0, phi.length).flatMap(i => Iterator.range(0, len(i)).map(phi(i)(_) -> (1L << i)))

  /** The object, `phi`, `len` and the bucket arrays (see [[Bytes]]). */
  def approxBytes: Long =
    Bytes.Object + Bytes.refs(phi.length) + Bytes.ints(len.length) +
      phi.iterator.filter(_ != null).map(b => Bytes.ints(b.length)).sum
}

/** `Exact` key state (SJoin): every member holds a Fenwick slot in arrival
  * order, weighted by its exact degree, so `cnt` is the Fenwick total. A
  * member's slot in [[Slots]] is its Fenwick slot.
  */
final class FenwickKeyState private[core] (slots: Slots) extends KeyState {
  /** The member of each Fenwick slot. */
  private var members = new Array[Int](4)
  private val fen = new Fenwick

  def degree(id: Int): Long = {
    val p = slots(id)
    if (p < 0) 0L else fen.weight(p.toInt)
  }

  def set(id: Int, now: Long): Long = {
    val p = slots(id)
    val old =
      if (p >= 0) { val w = fen.weight(p.toInt); if (now != w) fen.add(p.toInt, now - w); w }
      else {
        val s = fen.size
        if (s == members.length)
          members = java.util.Arrays.copyOf(members, Slots.grownLength(s, s + 1))
        members(s) = id
        slots(id) = s
        fen.append(now)
        0L
      }
    cnt += now - old
    old
  }

  def locate(z: Long, offset: Array[Long]): Int = members(fen.search(z, offset))

  def weights: Iterator[(Int, Long)] = Iterator.range(0, fen.size).map(s => members(s) -> fen.weight(s))

  /** The object, `members` and the Fenwick tree (see [[Bytes]]). */
  def approxBytes: Long = Bytes.Object + Bytes.ints(members.length) + fen.approxBytes
}

/** How an [[EdgeIndex]] counts. `Pow2` (RSJoin) multiplies a parent's degree
  * by `cnt~ = ceilPow2(cnt)` of each child key and buckets members by their
  * power-of-two degree, so a count propagates only when `cnt~` doubles.
  * `Exact` (SJoin) multiplies by `cnt` itself and keeps members in a Fenwick
  * tree, so every count change propagates and batches hold no dummies. The
  * engine class picks the policy.
  */
private[core] sealed abstract class CountPolicy extends Serializable {
  /** The factor a parent's degree takes from a child key with count `cnt`. */
  def round(cnt: Long): Long

  /** An empty key state whose members keep their slots in `slots`, the
    * slot array of the edge state it belongs to.
    */
  def newKeyState(slots: Slots): KeyState

  /** Whether an update to degree 0 may be skipped: degrees never fall in an
    * insert-only stream, so such a member is new or was never stored.
    * `Exact` may not skip it: a new member takes its Fenwick slot on arrival,
    * even at degree 0, so that slot order is arrival order.
    */
  def skipsZero: Boolean
}

private[core] object CountPolicy {
  case object Pow2 extends CountPolicy {
    def round(cnt: Long): Long = ceilPow2(cnt)
    def newKeyState(slots: Slots): KeyState = new BucketKeyState(slots)
    def skipsZero: Boolean = true
  }

  case object Exact extends CountPolicy {
    def round(cnt: Long): Long = cnt
    def newKeyState(slots: Slots): KeyState = new FenwickKeyState(slots)
    def skipsZero: Boolean = false
  }
}

/** The index state of relation `rel` under parent `parent`, i.e. of the
  * directed join-tree edge `rel→parent`. Section 4 keeps a node state per
  * rooted tree, but it depends only on this edge, so every rooted tree in
  * which `parent` is `rel`'s parent shares this one object. With
  * `parent = -1` it is `rel`'s root state: unlike the paper (whose root holds
  * no structure), it counts `Q(R)` under the empty key, which backs
  * [[FullJoinSampler]] (operation (2) of Theorem 4.2); it exists only with
  * full-join tracking.
  *
  * The key is `attrs(rel) ∩ attrs(parent)` in query-attribute order, so that
  * both directions of an edge share one dictionary; the children are the
  * states `c→rel` of `rel`'s other neighbours `c`, in relation-index order.
  * Keys are key ids of the engine's dictionaries, read from the store's
  * key-id columns: `byKey` is indexed by key id.
  *
  * With `grouping`, a non-root state whose attributes strictly contain the
  * join attributes `ē = key ∪ ⋃ key(child)` operates on the grouped view
  * `π_ē R` (Section 4.4, Algorithms 10–11), kept as a view over the store: a
  * group is its ē key id, its multiplicity is the length of its ē list, and
  * its member tuple is the first tuple of that list. Propagation reaches a
  * group through that tuple in the store's child lists ([[memberOf]]).
  *
  * @param treeCount how many rooted trees hold this state
  */
final class EdgeState private[core] (
    val rel: Int,
    val parent: Int,
    val children: Array[EdgeState],
    val keyAttrs: Vector[String],
    private[core] val store: RelationStore,
    dicts: mutable.Map[Vector[String], KeyDict],
    grouping: Boolean,
    val treeCount: Int,
) extends Serializable {
  val isRoot: Boolean = parent < 0
  val baseSchema: RelSchema = store.schema

  /** Join attributes ē (in base-schema order). */
  val groupAttrs: Vector[String] = {
    val needed = keyAttrs.toSet ++ children.flatMap(_.keyAttrs)
    baseSchema.attrs.filter(needed.contains)
  }

  val grouped: Boolean =
    grouping && !isRoot && children.nonEmpty && groupAttrs.size < baseSchema.arity

  /** The store's index on this state's key, and on each child's key: the
    * key ids of a member's tuple. The children's are also the lists
    * propagation walks when a child's count changes.
    */
  private[core] val keyIx: KeyIndex = store.ensureIndex(keyAttrs, dicts)
  private[core] val childIx: Array[KeyIndex] = children.map(c => store.ensureIndex(c.keyAttrs, dicts))

  /** Grouped: the store's index on ē, whose key ids are the groups. */
  private[core] val groupIx: KeyIndex = if (grouped) store.ensureIndex(groupAttrs, dicts) else null

  /** The key state of each key id, or null. */
  private[core] var byKey = new Array[KeyState](0)

  /** The slots of this state's members, shared by its key states. */
  private[core] val slots = new Slots

  /** The states this one is a child of (`parent→x` for every `x ≠ rel`, and
    * `parent`'s root state): a change of this state's `cnt~` is a message to
    * each of them. `targetMembers(i)` is target i's store list by this
    * state's key id, whose tuples name the members to update (see
    * [[memberOf]]).
    */
  private[core] var targets: Array[EdgeState] = Array.empty
  private[core] var targetMembers: Array[IdLists] = Array.empty

  /** The tuple a member stands for: itself, or a group's first tuple. */
  private[core] def tupleOf(member: Int): Int = if (grouped) groupIx.ids(member)(0) else member

  /** The member that store tuple `t` names when a walk reaches it: `t`
    * itself, or for a grouped state `t`'s group if `t` is the group's first
    * tuple, and -1 for the group's later tuples. A child key is part of ē, so
    * a group's tuples all sit in one list of each child, and the first tuples
    * in such a list name its groups in creation order.
    */
  private[core] def memberOf(t: Int): Int =
    if (!grouped) t
    else { val g = groupIx.keyOf(t); if (groupIx.ids(g)(0) == t) g else -1 }

  private[core] def keyState(k: Int): KeyState = if (k < byKey.length) byKey(k) else null

  def approxBytes: Long =
    Bytes.Object + Bytes.refs(byKey.length) + slots.approxBytes +
      byKey.iterator.filter(_ != null).map(_.approxBytes).sum
}

/** The dynamic index of Section 4 for all rooted join trees of an acyclic
  * query at once, under a [[CountPolicy]]: `Pow2` for RSJoin, `Exact` for
  * the SJoin baseline.
  *
  * It keeps one [[EdgeState]] per directed join-tree edge `e→p` — `e`'s
  * state in every tree where `p` is `e`'s parent — plus, with `trackRoot`,
  * one root state per relation, rather than a copy per rooted tree (the view
  * tree of Dynamic Yannakakis and F-IVM). An insert into `r` updates each of
  * r's states. A change of `cnt~` at `c→p` is a message that updates the
  * matching members of every `p→x` with `x ≠ c` and of `p`'s root state,
  * depth-first. Each state thus sees the same updates, in the same order,
  * as each of its per-tree copies would have. An updated member's old degree
  * is the one its key state stores, so no caller rebuilds it from the
  * children's counts.
  *
  * It owns one [[KeyDict]] per join-attribute list, which its states
  * register with the stores: every key is encoded once, when its tuple is
  * inserted, and the propagate, size and retrieve paths only read key ids.
  *
  * `counters.propagations` keeps Fig. 9's tree-by-tree count: an update of a
  * member of a state counts once per tree holding the state.
  */
final class EdgeIndex private[core] (
    query: JoinQuery,
    edges: Vector[(Int, Int)],
    stores: Vector[RelationStore],
    grouping: Boolean,
    counters: EngineCounters,
    trackRoot: Boolean,
    private[core] val policy: CountPolicy,
) extends Serializable {

  private val n = query.arity

  /** One dictionary per join-attribute list. */
  private val dicts = mutable.LinkedHashMap.empty[Vector[String], KeyDict]

  /** Second result of [[KeyState.locate]]. */
  private val offset = new Array[Long](1)

  /** Retrieve's scratch: the tuple id chosen for each relation. A real
    * position's row gets a copy; an [[IdMatrix]] over it stages it.
    */
  private val ids = new Array[Int](n)
  private val layout = new RowLayout(query, stores)

  /** Join-tree neighbours of each relation, in relation-index order. */
  private val nbrs: Array[Vector[Int]] = Array.tabulate(n) { v =>
    edges.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }.sorted
  }

  /** The relations on `e`'s side of the edge `{e, p}`. */
  private def side(e: Int, p: Int): Vector[Int] = e +: nbrs(e).filter(_ != p).flatMap(side(_, e))

  private val byEdge = mutable.HashMap.empty[(Int, Int), EdgeState]

  /** State `e→p`, built with the states below it on first use; the trees
    * holding it are those rooted on `p`'s side.
    */
  private def edgeState(e: Int, p: Int): EdgeState = byEdge.get((e, p)) match {
    case Some(s) => s
    case None =>
      val s = newState(e, p, side(p, e).size)
      byEdge((e, p)) = s
      s
  }

  private def newState(e: Int, p: Int, treeCount: Int): EdgeState = {
    val keyAttrs = if (p < 0) Vector.empty[String] else query.shared(e, p)
    val children = nbrs(e).filter(_ != p).map(edgeState(_, e)).toArray
    new EdgeState(e, p, children, keyAttrs, stores(e), dicts, grouping, treeCount)
  }

  private val rootStates: Array[EdgeState] =
    Array.tabulate(n)(r => if (trackRoot) newState(r, -1, 1) else null)

  /** Each relation's states: `r→p` for every neighbour `p`, then its root state. */
  private val statesOf: Array[Array[EdgeState]] =
    Array.tabulate(n)(r => (nbrs(r).map(edgeState(r, _)) ++ Option(rootStates(r))).toArray)

  /** Every state, once: `2(n−1)` edge states, plus `n` root states with
    * full-join tracking.
    */
  val states: Vector[EdgeState] = statesOf.toVector.flatten

  for (s <- states; (c, i) <- s.children.zipWithIndex) {
    c.targets :+= s
    c.targetMembers :+= s.childIx(i).ids
  }

  /** The states `c→r` below relation `r` as a root, and r's indexes on their
    * keys: the factors of `ΔJ` for a tuple inserted into r.
    */
  private val rootChildren: Array[Array[EdgeState]] =
    Array.tabulate(n)(r => nbrs(r).map(edgeState(_, r)).toArray)
  private val rootChildIx: Array[Array[KeyIndex]] =
    Array.tabulate(n)(r => rootChildren(r).map(c => stores(r).ensureIndex(c.keyAttrs, dicts)))

  /** The exact `cnt[e→p, t]` of a key state — 0 when the key is absent. */
  private def cntOf(ks: KeyState): Long = if (ks == null) 0L else ks.cnt

  /** Degree of a member: `feq~ · Π_child cnt~` (Section 4.3/4.4), where
    * `feq` is a group's number of tuples (1 ungrouped).
    */
  private def degreeOf(s: EdgeState, member: Int): Long = {
    val t = s.tupleOf(member)
    var d = if (s.grouped) policy.round(s.groupIx.ids.length(member)) else 1L
    var i = 0
    while (d > 0 && i < s.children.length) {
      d = mulCap(d, policy.round(cntOf(s.children(i).keyState(s.childIx(i).keyOf(t)))))
      i += 1
    }
    d
  }

  /** IndexUpdate (Algorithm 7 / Algorithm 10): recompute the degree of
    * `member` of `s`, store it in its key state (which moves the member from
    * `Φ_old` to `Φ_new` and adjusts `cnt`), and, if the rounded count
    * changed, pass the change on to every target.
    */
  private def update(s: EdgeState, member: Int): Unit = {
    val now = degreeOf(s, member)
    if (now == 0 && policy.skipsZero) return
    val k = s.keyIx.keyOf(s.tupleOf(member))
    if (k >= s.byKey.length) s.byKey = java.util.Arrays.copyOf(s.byKey, Slots.grownLength(s.byKey.length, k + 1))
    var ks = s.byKey(k)
    if (ks == null) { ks = policy.newKeyState(s.slots); s.byKey(k) = ks }
    val oldRounded = policy.round(ks.cnt)
    ks.set(member, now)
    if (policy.round(ks.cnt) != oldRounded) {
      var ti = 0
      while (ti < s.targets.length) {
        val p = s.targets(ti)
        val lists = s.targetMembers(ti)
        val len = lists.length(k)
        if (len > 0) {
          val members = lists(k)
          var m = 0
          while (m < len) {
            val member = p.memberOf(members(m))
            if (member >= 0) {
              counters.propagations += p.treeCount
              counters.edgePropagations += 1
              update(p, member)
            }
            m += 1
          }
        }
        ti += 1
      }
    }
  }

  /** React to the insertion of base tuple `tupId` into relation `rel` (the
    * tuple is already in the store, its key ids encoded): apply it to each
    * of rel's states.
    */
  def onInsert(rel: Int, tupId: Int): Unit = {
    val ss = statesOf(rel)
    var i = 0
    while (i < ss.length) { insert(ss(i), tupId); i += 1 }
  }

  /** Apply the insertion of base tuple `tupId` of `s.rel` to `s`. A grouped
    * state's member is the tuple's group, updated when `feq~` changes (`cnt`
    * counts `feq~`, not `feq`): from 0 when the tuple is the first of its ē
    * list.
    */
  private def insert(s: EdgeState, tupId: Int): Unit =
    if (!s.grouped) update(s, tupId)
    else {
      val g = s.groupIx.keyOf(tupId)
      val copies = s.groupIx.ids.length(g)
      if (policy.round(copies) != policy.round(copies - 1)) update(s, g)
    }

  // -------------------------------------------------------------------------
  // Batch generation + retrieval (Algorithms 8, 9, 11)
  // -------------------------------------------------------------------------

  /** Retrieve position `z` of the implicit array of key state `ks` of `s`
    * (Case 3 of Algorithm 9 / the grouped variant of Algorithm 11); `ks` is
    * null when no member has the key. Records in `ids` the tuple chosen for
    * every relation of `s`'s subtree. Returns false iff the position is a
    * dummy.
    */
  private def retrieveKey(s: EdgeState, ks: KeyState, z: Long): Boolean = {
    if (ks == null || z >= ks.cnt) return false // padding up to cnt~ is dummy
    val member = ks.locate(z, offset)
    val ell = offset(0)
    if (!s.grouped) {
      retrieveRaw(s, member, ell)
    } else {
      // Alg. 11 lines 19–23: pick which copy inside the group, dummies past
      // feq. Each copy owns h = Π_child cnt~ = degree / feq~ positions.
      val copies = s.groupIx.ids.length(member)
      val h = ks.degree(member) / policy.round(copies)
      val copy = ell / h
      if (copy >= copies) return false
      retrieveRaw(s, s.groupIx.ids(member)(Math.toIntExact(copy)), ell - copy * h)
    }
  }

  /** Retrieve within the sub-batch of base tuple `tupId` of `s.rel`: record
    * it in `ids` and decompose the residual position over the children
    * (Case 2 of Algorithm 9). For leaves the residual is necessarily 0.
    */
  private def retrieveRaw(s: EdgeState, tupId: Int, z: Long): Boolean = {
    ids(s.rel) = tupId
    if (s.children.isEmpty) { require(z == 0, s"leaf residual $z"); return true }
    var rem = z
    var ci = s.children.length - 1
    while (ci >= 0) {
      val c = s.children(ci)
      val ks = c.keyState(s.childIx(ci).keyOf(tupId))
      val size = policy.round(cntOf(ks))
      val zi = rem % size
      rem = rem / size
      if (!retrieveKey(c, ks, zi)) return false
      ci -= 1
    }
    true
  }

  /** The implicit batch `ΔJ ⊇ ΔQ(R, t)` for tuple `tupId` just inserted into
    * relation `root`: `{t} × Π_child ΔJ(child)` over the states `c→root`,
    * with `|ΔJ|` available in O(1) and positional retrieve in O(log N).
    * `retrieve` yields an [[IdRow]] over a copy of the tuple ids it chose;
    * `stage` into this index's [[sampleStore]] writes them into the store's
    * staged row and allocates nothing.
    *
    * The index reuses one batch object: it describes the last tuple passed
    * here and is valid only until the next insert into the index.
    *
    * The child array lengths use the exact per-key `cnt` (positions in
    * `[cnt, cnt~)` are always dummy padding, so truncating them keeps the
    * batch a superset of `ΔQ` while strictly improving density). This
    * matches the paper's two-table and line-3 cases, where `|ΔJ|` is
    * `cnt(b)·cnt(c)` exactly. Under `Exact`, `ΔJ = ΔQ`.
    */
  def deltaBatch(root: Int, tupId: Int): Batch[JoinRow] = delta.reset(root, tupId)

  /** An empty store for a reservoir of `k` rows fed by this index's batches. */
  def sampleStore(k: Int): SampleStore[JoinRow] = new IdMatrix(k, layout, ids)

  @transient private lazy val delta = new DeltaBatch

  private final class DeltaBatch extends Batch[JoinRow] {
    private var root = 0
    private var tupId = 0
    private var children: Array[EdgeState] = null
    private val keyStates = new Array[KeyState](rootChildren.iterator.map(_.length).max)
    private val sizes = new Array[Long](keyStates.length)
    private var total = 0L

    def size: Long = total

    def reset(root: Int, tupId: Int): DeltaBatch = {
      val childIx = rootChildIx(root)
      this.root = root
      this.tupId = tupId
      children = rootChildren(root)
      total = 1L
      var ci = 0
      while (ci < children.length) {
        keyStates(ci) = children(ci).keyState(childIx(ci).keyOf(tupId))
        sizes(ci) = cntOf(keyStates(ci))
        total = mulCap(total, sizes(ci))
        ci += 1
      }
      this
    }

    /** Retrieve position `z` into `ids`; false iff it is a dummy. */
    private def fill(z: Long): Boolean = {
      require(z >= 0 && z < total, s"retrieve($z) out of [0, $total)")
      ids(root) = tupId
      var rem = z
      var ok = true
      var i = children.length - 1
      while (ok && i >= 0) {
        val zi = rem % sizes(i)
        rem = rem / sizes(i)
        ok = retrieveKey(children(i), keyStates(i), zi)
        i -= 1
      }
      ok
    }

    def retrieve(z: Long): Option[JoinRow] = if (fill(z)) Some(new IdRow(layout, ids.clone())) else None

    override def stage(z: Long, into: SampleStore[JoinRow]): Boolean = into match {
      case s: IdMatrix if s.scratch eq ids => fill(z)
      case _                               => super.stage(z, into)
    }
  }

  /** Size of the implicit dense array over the full `Q(R)` (the ∅ key, id 0,
    * of `root`'s root state); exactly `|Q(R)|` under `Exact`.
    */
  def fullCount(root: Int): Long = {
    require(trackRoot, "fullCount requires trackFullJoin = true")
    cntOf(rootStates(root).keyState(0))
  }

  /** Position `z` of the full-join implicit array; None if dummy. */
  def retrieveFull(root: Int, z: Long): Option[JoinRow] = {
    val s = rootStates(root)
    if (retrieveKey(s, s.keyState(0), z)) Some(new IdRow(layout, ids.clone())) else None
  }

  /** Test-facing consistency check of every documented invariant of `s`:
    * every member's stored degree (its bucket's `2^i`, or its Fenwick weight)
    * equals its recomputed degree, members sit under their own key id, a
    * grouped state's members are groups of its store, and `cnt` is the sum
    * of the stored degrees. Conversely, every member of a stored tuple (see
    * [[EdgeState.memberOf]]) whose degree is positive is stored, and under
    * `Exact` every member is. Throws on violation.
    */
  def checkInvariants(s: EdgeState): Unit = {
    val at = s"${query.name}/state=${s.rel}→${if (s.isRoot) "root" else s.parent}"
    for (k <- s.byKey.indices; ks = s.byKey(k) if ks != null) {
      var sum = 0L
      for ((m, w) <- ks.weights) {
        require(!s.grouped || s.groupIx.ids.length(m) > 0, s"$at: member $m is no group")
        val d = degreeOf(s, m)
        require(d == w && ks.degree(m) == w, s"$at: member $m degree $d, stored $w")
        require(s.keyIx.keyOf(s.tupleOf(m)) == k, s"$at: member $m stored under wrong key")
        sum += w
      }
      require(sum == ks.cnt, s"$at/key=${s.keyIx.dict.key(k)}: cnt=${ks.cnt} != stored sum $sum")
    }
    for (t <- 0 until s.store.size; m = s.memberOf(t) if m >= 0) {
      val d = degreeOf(s, m)
      if (d > 0 || !policy.skipsZero) {
        val ks = s.keyState(s.keyIx.keyOf(t))
        require(ks != null && s.slots(m) >= 0 && ks.degree(m) == d, s"$at: member $m (tuple $t) of degree $d not stored")
      }
    }
  }

  /** Bytes of the arrays the index holds (Fig. 11): each shared state once,
    * and the dictionaries; the stores' tuples, columns and lists are the
    * stores' (see [[Bytes]]).
    */
  def approxBytes: Long = states.iterator.map(_.approxBytes).sum + dicts.valuesIterator.map(_.approxBytes).sum
}

/** Relation `root`'s entry point into an [[EdgeIndex]], kept only for the
  * benchmark's traced replay of `insert`, which calls every relation's
  * `onInsert` and then the inserted relation's `deltaBatch`. Engine code and
  * tests use the [[EdgeIndex]] itself.
  */
final class TreeIndex(root: Int, index: EdgeIndex) extends Serializable {

  /** Apply the insertion of base tuple `tupId` into `rel` to all of rel's
    * states if `rel` is this view's root, so that calling every view in
    * turn applies it once.
    */
  def onInsert(rel: Int, tupId: Int): Unit = if (rel == root) index.onInsert(rel, tupId)

  /** The delta batch of tuple `tupId` just inserted into `root`. */
  def deltaBatch(tupId: Int): Batch[JoinRow] = index.deltaBatch(root, tupId)
}
