package repro.core

import scala.collection.mutable

import repro.{SparkSpec, TestKit}
import repro.core.baseline.SJoinEngine
import repro.core.fk.FkEngine
import repro.data.StreamGen
import repro.queries.Queries

/** The per-key states store each member's degree: a model-based check of
  * both structures against a `member → degree` map, and a check, on whole
  * engines, that no stored degree falls, the premise of `update` skipping
  * members of degree 0 under `Pow2`.
  */
class KeyStateSpec extends SparkSpec {

  /** A non-decreasing next degree: any power of two (or 0) for `Pow2`
    * states, any count for `Exact` ones.
    */
  private val kinds: Seq[(String, Slots => KeyState, (Rng, Long) => Long)] = Seq(
    ("BucketKeyState", new BucketKeyState(_), (rng, old) =>
      if (old >= 64) old
      else if (old > 0) old << rng.nextInt(3)
      else if (rng.nextInt(4) == 0) 0L
      else 1L << rng.nextInt(6)),
    ("FenwickKeyState", new FenwickKeyState(_), (rng, old) => old + rng.nextInt(5)),
  )

  private def check(ks: KeyState, model: mutable.Map[Int, Long], withLocate: Boolean): Unit = {
    for ((id, d) <- model) assert(ks.degree(id) === d, s"degree of member $id")
    val w = ks.weights.toVector
    assert(w.map(_._1).distinct.size === w.size, "a member listed twice")
    for ((id, d) <- w) assert(model.get(id) === Some(d), s"weight of member $id")
    assert(w.filter(_._2 > 0).toMap === model.filter(_._2 > 0).toMap)
    assert(ks.cnt === model.values.sum)
    if (withLocate) {
      val offset = new Array[Long](1)
      if (ks.cnt <= (1L << 16)) {
        val hits = mutable.Map.empty[Int, Vector[Long]].withDefaultValue(Vector.empty)
        for (z <- 0L until ks.cnt) {
          val id = ks.locate(z, offset)
          hits(id) :+= offset(0)
        }
        for ((id, d) <- model if d > 0)
          assert(hits(id).sorted === (0L until d).toVector, s"offsets of member $id")
        assert(hits.keySet === model.filter(_._2 > 0).keySet)
      }
      // Every member owns a run of consecutive positions, so stepping from
      // run start to run start visits each member once, however large cnt.
      val seen = mutable.Set.empty[Int]
      var z = 0L
      while (z < ks.cnt) {
        val id = ks.locate(z, offset)
        assert(offset(0) === 0L, s"position $z starts no member's run")
        val d = model.getOrElse(id, fail(s"position $z located non-member $id"))
        assert(ks.locate(z + d - 1, offset) === id && offset(0) === d - 1, s"run of member $id")
        assert(seen.add(id), s"member $id located twice")
        z += d
      }
      assert(seen === model.filter(_._2 > 0).keySet)
    }
  }

  for ((name, mk, next) <- kinds) {
    test(s"$name: set, degree, weights, cnt and locate match a member → degree model") {
      TestKit.forCases(40, seed0 = 611) { rng =>
        // Up to four keys of one edge state share its slot array, each
        // member belonging to one of them. Member ids spread over 2^4..2^20,
        // far past the array's initial capacity.
        val slots = new Slots
        val keys = Vector.fill(1 + rng.nextInt(4))(mk(slots))
        val models = keys.map(_ => mutable.LinkedHashMap.empty[Int, Long])
        val keyOf = mutable.Map.empty[Int, Int]
        def freshId(k: Int): Int = {
          var id = rng.nextInt(1 << (4 + rng.nextInt(17)))
          while (keyOf.contains(id)) id = rng.nextInt(1 << 20)
          keyOf(id) = k
          id
        }
        def setAndCheck(k: Int, id: Int, now: Long, step: Int, withLocate: Boolean): Unit = {
          val old = models(k).getOrElse(id, 0L)
          assert(keys(k).set(id, now) === old, s"set($id, $now) on key $k at step $step")
          models(k)(id) = now
          for (x <- keys.indices) check(keys(x), models(x), withLocate)
        }
        for (step <- 1 to 120) {
          val k = rng.nextInt(keys.size)
          val model = models(k)
          val id =
            if (model.isEmpty || rng.nextInt(3) == 0) freshId(k)
            else model.keys.toVector(rng.nextInt(model.size))
          setAndCheck(k, id, next(rng, model.getOrElse(id, 0L)), step, withLocate = step % 20 == 0)
        }
        // The highest exponent, 61: mask bit 61 under Pow2.
        val k = rng.nextInt(keys.size)
        setAndCheck(k, freshId(k), 1L << 61, 121, withLocate = true)
      }
    }
  }

  // --- stored degrees never fall under inserts --------------------------------

  /** Every stored degree of the engine's index, by (state, member). */
  private def degrees(e: ReservoirJoinEngine): Map[(Int, Int), Long] =
    (for {
      (s, si) <- e.index.states.zipWithIndex
      ks <- s.byKey.iterator if ks != null
      (m, d) <- ks.weights
    } yield (si, m) -> d).toMap

  private def graph(edges: Int, seed: Long) = StreamGen.graphEdges(edges, 40, seed)

  private val line3 = StreamGen.lineK(3, graph(150, 42), 42).stream
  private val star3 = StreamGen.starK(3, graph(150, 43), 43).stream
  private val qz = { val w = StreamGen.qz(0.05, 3); w.preload ++ w.stream }

  private val engines: Seq[(String, Seq[(String, Array[Long])], () => SamplingEngine)] = Seq(
    ("line3 RSJoin", line3, () => new ReservoirJoinEngine(Queries.lineK(3), 40, 7)),
    ("line3 SJoin", line3, () => new SJoinEngine(Queries.lineK(3), 40, 7)),
    ("star3 RSJoin+grouping", star3,
      () => new ReservoirJoinEngine(Queries.starK(3), 40, 7, grouping = true)),
    ("qz RSJoin_opt+grouping", qz,
      () => FkEngine.rs(Queries.qz, Queries.qzFks, 40, 7, grouping = true)),
  )

  for ((name, stream, mk) <- engines) {
    test(s"no stored degree decreases after any insert: $name") {
      val engine = mk()
      val e = engine match { case f: FkEngine => f.inner; case r: ReservoirJoinEngine => r }
      var before = degrees(e)
      var raised = 0
      for ((rel, t) <- stream) {
        engine.insert(rel, t.clone())
        val after = degrees(e)
        for ((k, d) <- before) {
          val now = after.getOrElse(k, 0L)
          assert(now >= d, s"state ${e.index.states(k._1).rel} member ${k._2}: $d → $now after $rel")
          if (now > d) raised += 1
        }
        before = after
      }
      assert(raised > 0, "no stored degree ever rose")
      if (name.contains("grouping")) assert(e.index.states.exists(_.grouped))
    }
  }
}
