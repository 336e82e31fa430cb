package repro.core

import scala.collection.mutable

import repro.core.Proj.JoinRow

/** Shared deterministic test harness: feed a stream into an RSJoin or SJoin
  * index and a brute-force [[DeltaEnumerator]] side by side; after every
  * insert, enumerate the implicit `ΔJ` position by position and require exact
  * agreement with the brute-force delta, plus the density bound (`ΔJ = ΔQ`
  * under exact counts) and all structural invariants. This exercises
  * Algorithms 7–11 with zero reliance on statistics.
  */
object IndexHarness {

  /** Random stream of distinct tuples over `query` with values in
    * [1, domain] — small domains force interesting join structure.
    */
  def randomStream(query: JoinQuery, steps: Int, domain: Int, rng: Rng,
                   payloadAttrs: Set[String] = Set.empty): Vector[(String, Array[Long])] = {
    val seen = query.relations.map(_ => mutable.HashSet.empty[Seq[Long]]).toVector
    val out = Vector.newBuilder[(String, Array[Long])]
    var produced = 0
    var guard = 0
    while (produced < steps && guard < steps * 50) {
      guard += 1
      val r = rng.nextInt(query.arity)
      val schema = query.relations(r)
      val t = schema.attrs.map { a =>
        // payload attrs draw from a wider domain so grouping has work to do
        if (payloadAttrs(a)) 1L + rng.nextLong(5 * domain.toLong)
        else 1L + rng.nextLong(domain.toLong)
      }.toArray
      if (seen(r).add(t.toSeq)) { out += ((schema.name, t)); produced += 1 }
    }
    out.result()
  }

  final case class Result(totalJoin: Long, maxBatch: Long)

  /** Run the side-by-side comparison on a fresh `engine`; returns the final
    * |Q(R)|, or -1 if some batch was not enumerated.
    *
    * Batches larger than `enumCap` positions are skipped (wide queries on
    * tiny domains explode combinatorially); the full-join enumeration check
    * runs only when `|J|` stays below `fullCap`.
    */
  def compare(engine: ReservoirJoinEngine, stream: Seq[(String, Array[Long])],
              checkInvariantsEvery: Int = 10,
              enumCap: Long = 50000L, fullCap: Long = 200000L): Result = {
    val query = engine.query
    val index = engine.index
    val exact = index.policy == CountPolicy.Exact
    val brute = new DeltaEnumerator(query)
    val m = query.arity
    val phi = math.pow(0.5, 2 * m - 2)
    var total = 0L
    var maxBatch = 0L
    var enumerated = 0
    for (((rel, t), step) <- stream.zipWithIndex) {
      val batch = engine.updateOnly(rel, t)
      maxBatch = math.max(maxBatch, batch.size)
      if (batch.size <= enumCap) {
        enumerated += 1
        val expected = brute.insertAndDelta(rel, t.clone())
        val got = (0L until batch.size).flatMap(z => batch.retrieve(z))
        assert(got.size == got.toSet.size,
          s"step $step ($rel): duplicate results in batch")
        assert(got.toSet == expected.toSet,
          s"step $step ($rel): batch mismatch\n got=${got.toSet.take(5)}\n exp=${expected.toSet.take(5)}\n" +
            s" sizes got=${got.size} exp=${expected.size} batch=${batch.size}")
        if (exact)
          assert(batch.size == expected.size.toLong,
            s"step $step ($rel): exact |ΔJ| ${batch.size} != |ΔQ| ${expected.size}")
        else
          assert(got.size.toDouble >= phi * batch.size - 1e-9,
            s"step $step: density ${got.size}/${batch.size} below bound $phi")
        total += expected.size
      } else {
        // Keep the brute-force store in sync without materializing the delta.
        brute.insertOnly(rel, t.clone())
        total = -1L // totals no longer comparable once a batch is skipped
      }
      if (step % checkInvariantsEvery == 0)
        index.states.foreach(index.checkInvariants)
    }
    index.states.foreach(index.checkInvariants)
    assert(enumerated > 0, "harness never enumerated a batch — workload too explosive")

    // Full-join machinery: relation 0's ∅-key array enumerates Q(R).
    if (index.fullCount(0) <= fullCap) {
      val full = (0L until index.fullCount(0)).flatMap(z => index.retrieveFull(0, z))
      if (total >= 0)
        assert(full.size.toLong == total, s"full enumeration ${full.size} != Σ deltas $total")
      assert(full.size == full.toSet.size, "duplicates in full enumeration")
      assert(full.toSet == brute.fullJoin().toSet, "full join mismatch")
    }
    Result(total, maxBatch)
  }

  /** Run an engine (any [[SamplingEngine]]) over a workload stream. */
  def feed(engine: SamplingEngine, tuples: Seq[(String, Array[Long])]): Unit =
    tuples.foreach { case (rel, t) => engine.insert(rel, t) }

  /** Inclusion-count uniformity harness: run `mk(seed)` engines over the
    * same stream and count how often each join row lands in the sample.
    */
  def inclusionCounts(mk: Long => SamplingEngine, tuples: Seq[(String, Array[Long])],
                      runs: Int): Map[JoinRow, Int] = {
    val counts = mutable.HashMap.empty[JoinRow, Int].withDefaultValue(0)
    for (r <- 0 until runs) {
      val e = mk(1000L + 31L * r)
      feed(e, tuples)
      e.sample.foreach(row => counts(row) += 1)
    }
    counts.toMap
  }
}
