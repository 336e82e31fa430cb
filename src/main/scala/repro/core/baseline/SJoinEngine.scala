package repro.core.baseline

import repro.core._

/** The SJoin baseline (Zhao et al., SIGMOD 2020): reservoir sampling over an
  * acyclic join with an index that maintains *exact* per-key counts.
  *
  * Exactness buys dummy-free, exactly-sized delta batches (classic reservoir
  * sampling applies directly), but costs eager propagation: every count
  * change walks all matching parent tuples, so a single insert can touch
  * O(N) tuples and a stream costs O(N²) worst case — the behaviour the paper
  * contrasts against. Retrieval uses a Fenwick tree per (state, key) to find
  * the tuple owning a position in O(log N).
  *
  * It is RSJoin's engine over [[EdgeIndex]] with the `Exact` counting policy
  * and no grouping. Each root state also maintains an ∅-key count, so `fullCount`
  * is the exact `|Q(R)|` — handy as a test oracle and for the Fig. 7
  * join-size column.
  */
final class SJoinEngine private[core] (query: JoinQuery, k: Int, seed: Long, trackFullJoin: Boolean,
                                      stores: Vector[RelationStore])
    extends ReservoirJoinEngine(query, k, seed, false, trackFullJoin, CountPolicy.Exact, stores) {

  def this(query: JoinQuery, k: Int, seed: Long, trackFullJoin: Boolean = true) =
    this(query, k, seed, trackFullJoin, query.relations.map(new ValueStore(_)))
}
