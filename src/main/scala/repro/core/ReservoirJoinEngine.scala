package repro.core

import Proj.JoinRow

/** RSJoin (Algorithm 6): reservoir sampling over an acyclic join.
  *
  * Algorithm 6 indexes the join tree rooted at each relation (that tree
  * generates the delta batch when a tuple arrives there). The rooted trees
  * share their node states through one [[EdgeIndex]], which keeps a state
  * per directed join-tree edge; `trees` holds one [[TreeIndex]] view per
  * relation. Each insert updates the shared states in O(log N) amortized,
  * then feeds the implicit `ΔJ` batch of the tree rooted at the tuple's
  * relation into the predicate-enabled batched reservoir.
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

  val trees: Vector[TreeIndex] = query.relations.indices.map { r =>
    new TreeIndex(JoinTree.rooted(query, unrootedEdges, r), index)
  }.toVector

  val rng = new Rng(seed)
  val reservoir = new BatchReservoir[JoinRow](k, rng)
  var inserts: Long = 0L

  /** Index maintenance only — what Fig. 6 times with sampling disabled.
    * Returns the delta batch of the inserted tuple.
    */
  def updateOnly(rel: String, values: Array[Long]): Batch[JoinRow] = {
    val r = query.relIdx.getOrElse(rel,
      throw new IllegalArgumentException(s"unknown relation $rel in ${query.name}"))
    val id = stores(r).insert(values)
    index.onInsert(r, id)
    inserts += 1
    index.deltaBatch(r, id)
  }

  /** Full Algorithm 6 step: update the index, then sample the delta batch. */
  def insert(rel: String, values: Array[Long]): Unit =
    reservoir.update(updateOnly(rel, values))

  def propagations: Long = counters.propagations
  def edgePropagations: Long = counters.edgePropagations

  /** Current reservoir contents (uniform k-sample of `Q(R)` w/o replacement). */
  def sample: Seq[JoinRow] = reservoir.sample.toSeq

  /** Size of tree 0's array over the full join: a constant-factor bound on
    * `|Q(R)|`, or `|Q(R)|` itself under exact counts.
    */
  def fullCount: Long = trees(0).fullCount

  /** Structure-proportional memory estimate (Fig. 11). */
  def approxBytes: Long = stores.map(_.approxBytes).sum + index.approxBytes
}

/** Dynamic sampling over the full join (operation (2) of Theorem 4.2):
  * draw single uniform samples from `Q(R)` at any point of the stream, in
  * O(log N) expected time, via the root ∅-key structure of one tree.
  */
final class FullJoinSampler(engine: ReservoirJoinEngine, seed: Long, treeIdx: Int = 0)
    extends Serializable {
  private val tree = engine.trees(treeIdx)
  private val rng = new Rng(seed)

  /** `|J|` — a constant-factor upper bound on `|Q(R)|`. */
  def joinUpperBound: Long = tree.fullCount

  /** One uniform sample from `Q(R)`, or None if the join is empty.
    * Expected O(1) rejection rounds thanks to the density guarantee.
    */
  def draw(maxTries: Int = 100000): Option[JoinRow] = {
    val total = tree.fullCount
    if (total == 0) return None
    var tries = 0
    while (tries < maxTries) {
      val z = rng.nextLong(total)
      tree.retrieveFull(z) match {
        case some @ Some(_) => return some
        case None           => tries += 1
      }
    }
    None // statistically unreachable for dense J unless the join is empty
  }
}
