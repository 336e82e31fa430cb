package repro.core

import Proj.JoinRow

/** RSJoin (Algorithm 6): reservoir sampling over an acyclic join.
  *
  * Algorithm 6 indexes the join tree rooted at each relation (that tree
  * generates the delta batch when a tuple arrives there). The rooted trees
  * share their node states through one [[EdgeIndex]], which keeps a state
  * per directed join-tree edge. Each insert updates the shared states in
  * O(log N) amortized, then feeds the implicit `ΔJ` batch of the tree rooted
  * at the tuple's relation into the predicate-enabled batched reservoir.
  *
  * The engine is serializable end-to-end so the Spark streaming operator can
  * keep it in the state store between micro-batches.
  *
  * @param grouping  enable the Section 4.4 grouping optimization
  */
class ReservoirJoinEngine private[core] (
    val query: JoinQuery,
    val k: Int,
    seed: Long,
    grouping: Boolean,
    trackFullJoin: Boolean,
    policy: CountPolicy,
) extends SamplingEngine {

  def this(query: JoinQuery, k: Int, seed: Long, grouping: Boolean = false,
           trackFullJoin: Boolean = true) =
    this(query, k, seed, grouping, trackFullJoin, CountPolicy.Pow2)

  val stores: Vector[RelationStore] = query.relations.map(new RelationStore(_))
  val counters = new EngineCounters

  private val unrootedEdges: Vector[(Int, Int)] = JoinTree.unrooted(query).getOrElse(
    throw new IllegalArgumentException(
      s"query ${query.name} is cyclic — use the GHD engine (Section 5)"))

  val index = new EdgeIndex(query, unrootedEdges, stores, grouping, counters, trackFullJoin, policy)

  /** One [[TreeIndex]] per relation, for the benchmark's traced replay. */
  val trees: Vector[TreeIndex] = Vector.tabulate(query.arity)(new TreeIndex(_, index))

  val rng = new Rng(seed)
  val reservoir = new BatchReservoir[JoinRow](k, rng, index.sampleStore(k))
  var inserts: Long = 0L

  /** Index maintenance only — what Fig. 6 times with sampling disabled.
    * Returns the delta batch of the inserted tuple, valid until the next
    * insert into this engine (the index reuses one batch object).
    */
  def updateOnly(rel: String, values: Array[Long]): Batch[JoinRow] =
    insertAt(query.indexOf(rel), values, sample = false)

  /** Full Algorithm 6 step: update the index, then sample the delta batch. */
  def insert(rel: String, values: Array[Long]): Unit = insertAt(query.indexOf(rel), values, sample = true)

  /** Insert `values` into relation `r` of `query`: update the index and
    * return the delta batch (valid until the next insert), sampled into the
    * reservoir first if `sample`.
    */
  def insertAt(r: Int, values: Array[Long], sample: Boolean): Batch[JoinRow] = {
    val id = stores(r).insert(values)
    index.onInsert(r, id)
    inserts += 1
    val batch = index.deltaBatch(r, id)
    if (sample) reservoir.update(batch)
    batch
  }

  def propagations: Long = counters.propagations
  def edgePropagations: Long = counters.edgePropagations

  /** Current reservoir contents (uniform k-sample of `Q(R)` w/o replacement),
    * as rows built from the reservoir's tuple ids on each call.
    */
  def sample: Seq[JoinRow] = reservoir.sample

  /** Size of relation 0's array over the full join: a constant-factor bound
    * on `|Q(R)|`, or `|Q(R)|` itself under exact counts.
    */
  def fullCount: Long = index.fullCount(0)

  /** Structure-proportional memory estimate (Fig. 11). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + index.approxBytes
}

/** Dynamic sampling over the full join (operation (2) of Theorem 4.2):
  * draw single uniform samples from `Q(R)` at any point of the stream, in
  * O(log N) expected time, via the ∅-key root state of relation `root`.
  */
final class FullJoinSampler(engine: ReservoirJoinEngine, seed: Long, root: Int = 0)
    extends Serializable {
  private val index = engine.index
  private val rng = new Rng(seed)

  /** `|J|` — a constant-factor upper bound on `|Q(R)|`. */
  def joinUpperBound: Long = index.fullCount(root)

  /** One uniform sample from `Q(R)`, or None if the join is empty.
    * Expected O(1) rejection rounds thanks to the density guarantee.
    */
  def draw(maxTries: Int = 100000): Option[JoinRow] = {
    val total = index.fullCount(root)
    if (total == 0) return None
    var tries = 0
    while (tries < maxTries) {
      val z = rng.nextLong(total)
      index.retrieveFull(root, z) match {
        case some @ Some(_) => return some
        case None           => tries += 1
      }
    }
    None // statistically unreachable for dense J unless the join is empty
  }
}
