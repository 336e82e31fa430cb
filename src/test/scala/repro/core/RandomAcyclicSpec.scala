package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.{Oracle, SparkSpec, SynthDataX, TestKit}
import repro.core.Proj.JoinRow
import repro.core.baseline.SJoinEngine
import repro.core.fk.{FkCombiner, FkEngine, FkSpec}
import repro.data.StreamGen

/** Differential test on random α-acyclic queries: 2–7 relations grown as a
  * random join tree, with multi-attribute join keys (in a different order in
  * each relation), payload columns, the odd cross product, and skewed seeded
  * streams. After every insert, the plain, grouped and exact engines, and
  * the plain and grouped ones without full-join tracking (no root state, as
  * in the benchmark), must each enumerate `ΔJ` so that every real position
  * is a row of `ΔQ` and every row of `ΔQ` appears exactly once (`|ΔJ| =
  * |ΔQ|` under exact counts, the density bound under `Pow2`), and keep their
  * invariants, and a [[DeltaEnumerator]] must return each row of `ΔQ`
  * exactly once. At the end of the stream the tracking engines' and the
  * enumerator's full joins must be the same multiset as the oracle's. The
  * oracle is a nested-loop join over the raw tuples, independent of the
  * stores and enumerators the engines use. On the first two queries of each
  * arity, the plain engine's sample with `k ≥ |Q|` must also be the same
  * multiset of rows as DuckDB's natural join of the stream. With one join-tree
  * edge's key made a primary key of its parent, or with two or three such
  * keys in a chain, a fan-out or around a shared parent, the FK-combined
  * engines must keep the plain engines' full join, and SJoin_opt must offer
  * `|ΔQ|` per insert, as plain SJoin does.
  */
class RandomAcyclicSpec extends SparkSpec {
  import RandomAcyclicSpec._

  for (n <- 2 to 7) {
    test(s"random acyclic queries with $n relations: ΔJ = ΔQ row by row, invariants, one full join") {
      var grouped = 0
      var wideKeys = 0
      var rows = 0L
      TestKit.forCases(CasesPerArity, seed0 = 7000L + n) { rng =>
        val q = randomQuery(n, rng)
        val stream = randomStream(q, steps = 10 + 6 * n, rng)
        val cov = check(q, stream)
        grouped += cov.grouped
        wideKeys += cov.wideKeys
        rows += cov.rows
      }
      // The generator reaches what the catalog queries do not.
      assert(rows > 0, "no query joined")
      assert(wideKeys > 0, "no join key of two or more attributes")
      if (n >= 3) assert(grouped > 0, "no grouped state")
    }
  }

  test("random acyclic queries: a sample with k >= |Q| is DuckDB's natural join") {
    var rows = 0
    for (n <- 2 to 7) TestKit.forCases(2, seed0 = 7000L + n) { rng =>
      val q = randomQuery(n, rng)
      val stream = randomStream(q, steps = 10 + 6 * n, rng)
      val size = nestedLoop(q, q.relations.map(s => stream.filter(_._1 == s.name).map(_._2)), None).size
      rows += size
      val e = new ReservoirJoinEngine(q, math.max(1, size), 7)
      stream.foreach { case (rel, t) => e.insert(rel, t.clone()) }
      val schema = RelSchema("sample_" + q.name, q.attributes)
      Oracle.assertEquivalent(SynthDataX.tableDf(spark, schema, e.sample.map(r => q.attributes.map(r).toArray)),
        SynthDataX.naturalJoinSql(q), SynthDataX.workloadTables(spark, q, stream): _*)
    }
    assert(rows > 0, "no query joined")
  }

  test("random acyclic queries with a foreign key: FkEngine.rs and .sj keep the full join and |ΔQ|") {
    var checked = 0
    var combined = 0L
    for (n <- 2 to 7) TestKit.forCases(10, seed0 = 7100L + n) { rng =>
      val q = randomQuery(n, rng)
      val keyed = JoinTree.unrooted(q).get.filter { case (a, b) => q.shared(a, b).nonEmpty }
      if (keyed.nonEmpty) {
        val (a, b) = keyed(rng.nextInt(keyed.size))
        val (child, parent) = if (rng.nextInt(2) == 0) (a, b) else (b, a)
        val key = q.shared(child, parent)
        val fks = Seq(FkSpec(q.relations(child).name, key, q.relations(parent).name))
        combined += checkFk(q, fks, keyedStream(q, fks, steps = 10 + 6 * n, rng))
        checked += 1
      }
    }
    assert(checked > 40 && combined > 0, s"$checked queries, $combined combined tuples")
  }

  test("random acyclic queries with FK groups of 2-3 keys (chain, fan-out, shared parent): the full join and |ΔQ|") {
    val shapes = Vector("chain", "fan-out", "shared parent")
    val checked = mutable.Map.empty[String, Int].withDefaultValue(0)
    var combined = 0L
    var (early, late) = (0, 0)
    var cases = 0
    for (n <- 3 to 7) TestKit.forCases(15, seed0 = 7200L + n) { rng =>
      val q = randomQuery(n, rng)
      val keyed = JoinTree.unrooted(q).get.filter { case (a, b) => q.shared(a, b).nonEmpty }
      def nbrs(v: Int): Vector[Int] = keyed.collect { case (`v`, b) => b; case (a, `v`) => a }
      def spec(child: Int, parent: Int) = FkSpec(q.relations(child).name, q.shared(child, parent), q.relations(parent).name)
      val shape = shapes(cases % shapes.size)
      cases += 1
      val centres = (0 until n).filter(nbrs(_).size >= 2)
      val fks: Seq[FkSpec] = if (centres.isEmpty) Nil else {
        // A centre and 2 or 3 of its keyed neighbours.
        val centre = centres(rng.nextInt(centres.size))
        val around = StreamGen.shuffle(nbrs(centre), rng).take(2 + rng.nextInt(2))
        shape match {
          case "chain" => // around(0) → centre → around(1) [→ one further]
            val path = ArrayBuffer(around(0), centre, around(1))
            nbrs(path.last).filterNot(path.contains).headOption.filter(_ => rng.nextInt(2) == 0).foreach(path += _)
            path.indices.tail.map(i => spec(path(i - 1), path(i)))
          case "fan-out" => around.map(spec(centre, _))
          case _ => around.map(spec(_, centre)) // shared parent
        }
      }
      if (fks.size >= 2) {
        val stream = keyedStream(q, fks, steps = 10 + 6 * n, rng)
        for (fk <- fks) {
          val (c, p) = (q.indexOf(fk.childRel), q.indexOf(fk.parentRel))
          val (cPos, pPos) = (q.relations(c).idxOf(fk.keyAttrs), q.relations(p).idxOf(fk.keyAttrs))
          val seen = mutable.HashSet.empty[Seq[Long]]
          for ((rel, t) <- stream) {
            if (rel == fk.parentRel) seen += pPos.toSeq.map(t(_))
            else if (rel == fk.childRel) { if (seen(cPos.toSeq.map(t(_)))) late += 1 else early += 1 }
          }
        }
        combined += checkFk(q, fks, stream)
        val sub = JoinQuery("group", new FkCombiner(q, fks).groups.find(_.size > 1).get.map(q.relations(_)))
        val parent = sub.indexOf(fks.head.parentRel)
        if (shape == "shared parent" && JoinTree.unrooted(sub).get.forall { case (a, b) => a == parent || b == parent }) {
          // With the parent between its children in the group's join tree,
          // every child stays listed: the key-aware bag keeps every semijoin
          // list in full, so it can enumerate its whole join.
          val bag = new DeltaEnumerator(sub, fks)
          val part = stream.filter(x => sub.relIdx.contains(x._1))
          part.foreach { case (r, t) => bag.insertOnly(r, t.clone()) }
          assert(bag.fullJoin().toSet == OracleCheck.bruteJoin(sub, part), s"$sub with $fks: the bag's join differs")
          checked("all listed") += 1
        }
        checked(shape) += 1
      }
    }
    assert(shapes.forall(checked(_) >= 15) && checked("all listed") >= 10 && combined > 0, s"$checked, $combined combined tuples")
    assert(early > 0 && late > 0, s"children before their parent: $early, after: $late")
  }
}

object RandomAcyclicSpec {

  /** Six arities, 40 queries each: 240 random queries per run. */
  val CasesPerArity = 40

  /** A random α-acyclic query over `n` relations, grown as a join tree: each
    * new relation copies one to three join attributes of a random earlier
    * relation (none, rarely: a cross product) and adds fresh join and payload
    * attributes, in shuffled order. Every attribute then sits in a connected
    * part of that tree, so the query is acyclic.
    */
  def randomQuery(n: Int, rng: Rng): JoinQuery = {
    var fresh = 0
    def attr(prefix: String): String = { fresh += 1; s"$prefix$fresh" }
    def shuffle(as: Vector[String]): Vector[String] = {
      val a = as.toArray
      for (i <- a.length - 1 to 1 by -1) {
        val j = rng.nextInt(i + 1)
        val x = a(i); a(i) = a(j); a(j) = x
      }
      a.toVector
    }
    val rels = ArrayBuffer(shuffle(
      Vector.fill(1 + rng.nextInt(3))(attr("a")) ++ Vector.fill(rng.nextInt(2))(attr("p"))))
    for (_ <- 1 until n) {
      val joinable = rels(rng.nextInt(rels.size)).filter(_.startsWith("a"))
      val shared =
        if (joinable.isEmpty || rng.nextInt(12) == 0) Vector.empty[String]
        else shuffle(joinable).take(1 + rng.nextInt(math.min(3, joinable.size)))
      val own = Vector.fill(rng.nextInt(3))(attr("a")) ++ Vector.fill(rng.nextInt(3))(attr("p"))
      rels += shuffle(if (shared.isEmpty && own.isEmpty) Vector(attr("a")) else shared ++ own)
    }
    JoinQuery(s"random$n", rels.zipWithIndex.map { case (as, i) => RelSchema(s"r$i", as) }.toVector)
  }

  /** Distinct tuples per relation. Join values are skewed towards 1 over a
    * domain of 3 (P(1) = 5/9); payload values are uniform over 6.
    */
  def randomStream(q: JoinQuery, steps: Int, rng: Rng): Vector[(String, Array[Long])] = {
    val seen = q.relations.map(_ => mutable.HashSet.empty[Seq[Long]])
    val out = Vector.newBuilder[(String, Array[Long])]
    var produced = 0
    var guard = 0
    while (produced < steps && guard < steps * 50) {
      guard += 1
      val r = rng.nextInt(q.arity)
      val schema = q.relations(r)
      val t = schema.attrs.map { a =>
        if (a.startsWith("p")) 1L + rng.nextLong(6)
        else 1L + math.min(rng.nextLong(3), rng.nextLong(3))
      }.toArray
      if (seen(r).add(t.toSeq)) { out += ((schema.name, t)); produced += 1 }
    }
    out.result()
  }

  /** Join results of `q` over `tuples` (per relation), by nested loops:
    * every result, or with `only = (r, t)` those that use tuple `t` of
    * relation `r`. Relations are visited so that each one after the first
    * shares an attribute with an earlier one where it can.
    */
  def nestedLoop(q: JoinQuery, tuples: IndexedSeq[collection.Seq[Array[Long]]],
                 only: Option[(Int, Array[Long])]): Vector[Map[String, Long]] = {
    val start = only.fold(0)(_._1)
    val order = ArrayBuffer(start)
    while (order.size < q.arity) {
      val rest = q.relations.indices.filterNot(order.contains)
      val seen = order.flatMap(q.relations(_).attrs).toSet
      order += rest.find(q.relations(_).attrs.exists(seen)).getOrElse(rest.head)
    }
    val slot = q.attributes.zipWithIndex.toMap
    val value = new Array[Long](q.attributes.size)
    val bound = new Array[Boolean](q.attributes.size)
    val out = Vector.newBuilder[Map[String, Long]]
    def go(d: Int): Unit =
      if (d == order.size) out += q.attributes.zip(value).toMap
      else {
        val r = order(d)
        val pos = q.relations(r).attrs.map(slot)
        val candidates = only match {
          case Some((`r`, t)) => Seq(t)
          case _              => tuples(r).toSeq
        }
        for (t <- candidates) {
          if (pos.indices.forall(i => !bound(pos(i)) || value(pos(i)) == t(i))) {
            val newly = pos.indices.filterNot(i => bound(pos(i)))
            for (i <- newly) { bound(pos(i)) = true; value(pos(i)) = t(i) }
            go(d + 1)
            for (i <- newly) bound(pos(i)) = false
          }
        }
      }
    go(0)
    out.result()
  }

  final case class Coverage(grouped: Int, wideKeys: Int, rows: Long)

  /** Every real position of `batch`, in position order. */
  private def reals(batch: Batch[JoinRow]): Vector[JoinRow] =
    (0L until batch.size).iterator.flatMap(z => batch.retrieve(z)).toVector

  private def counts(rows: Seq[JoinRow]): Map[JoinRow, Int] =
    rows.groupBy(identity).map { case (r, rs) => r -> rs.size }

  /** Run the five engines and a [[DeltaEnumerator]] side by side over
    * `stream` against the oracle.
    */
  def check(q: JoinQuery, stream: Seq[(String, Array[Long])]): Coverage = {
    val tracked = Vector(
      "plain" -> new ReservoirJoinEngine(q, 1, 7),
      "grouped" -> new ReservoirJoinEngine(q, 1, 7, grouping = true),
      "exact" -> new SJoinEngine(q, 1, 7))
    val engines = tracked ++ Vector(
      "plain untracked" -> new ReservoirJoinEngine(q, 1, 7, trackFullJoin = false),
      "grouped untracked" -> new ReservoirJoinEngine(q, 1, 7, grouping = true, trackFullJoin = false))
    val enumerator = new DeltaEnumerator(q)
    val phi = math.pow(0.5, 2 * q.arity - 2)
    val tuples = q.relations.map(_ => ArrayBuffer.empty[Array[Long]])
    for (((rel, t), step) <- stream.zipWithIndex) {
      val r = q.relIdx(rel)
      tuples(r) += t
      val expected = nestedLoop(q, tuples.toVector, Some((r, t))).toSet[JoinRow]
      val delta = enumerator.insertAndDelta(rel, t.clone())
      assert(delta.size == expected.size && delta.toSet == expected,
        s"${q.relations.mkString(" ")}: DeltaEnumerator, step $step ($rel ${t.mkString(",")}): " +
          s"ΔQ ${delta.take(4)} (${delta.size} rows) != ${expected.take(4)} (${expected.size} rows)")
      for ((name, e) <- engines) {
        val at = s"${q.relations.mkString(" ")}: $name engine, step $step ($rel ${t.mkString(",")})"
        val batch = e.updateOnly(rel, t.clone())
        val got = reals(batch)
        assert(got.size == got.toSet.size, s"$at: a row of ΔQ appears twice in ΔJ")
        assert(got.toSet == expected,
          s"$at: ΔJ rows ${got.toSet.take(4)} != ΔQ ${expected.take(4)} (|ΔJ| = ${batch.size})")
        if (name == "exact") assert(batch.size == expected.size.toLong, s"$at: |ΔJ| ${batch.size} != |ΔQ| ${expected.size}")
        else assert(got.size >= phi * batch.size - 1e-9, s"$at: density ${got.size}/${batch.size} below $phi")
        e.index.states.foreach(e.index.checkInvariants)
      }
    }
    val full = counts(nestedLoop(q, tuples.toVector, None))
    assert(counts(enumerator.fullJoin().toSeq) == full, s"${q.relations.mkString(" ")}: DeltaEnumerator's full join differs")
    for ((name, e) <- tracked) {
      val rows = (0L until e.fullCount).flatMap(z => e.index.retrieveFull(0, z))
      assert(counts(rows) == full, s"${q.relations.mkString(" ")}: $name engine's full join differs")
      if (name == "exact") assert(e.fullCount == full.size.toLong)
    }
    val states = engines(1)._2.index.states
    Coverage(states.count(_.grouped), states.count(_.keyAttrs.size > 1), full.size.toLong)
  }

  /** A [[randomStream]] in which each parent of `fks` holds each key once:
    * a parent tuple whose key is already present is dropped.
    */
  def keyedStream(q: JoinQuery, fks: Seq[FkSpec], steps: Int, rng: Rng): Vector[(String, Array[Long])] = {
    val keys = fks.map(fk => (fk.parentRel, q.relations(q.indexOf(fk.parentRel)).idxOf(fk.keyAttrs), mutable.HashSet.empty[Seq[Long]]))
    randomStream(q, steps, rng).filter { case (rel, t) =>
      val mine = keys.filter(_._1 == rel).map { case (_, pos, seen) => (pos.toSeq.map(t(_)), seen) }
      mine.forall { case (key, seen) => !seen(key) } && { mine.foreach { case (key, seen) => seen += key }; true }
    }
  }

  /** Run RSJoin_opt and SJoin_opt under `fks` beside plain SJoin over
    * `stream`: SJoin_opt must offer each insert's `|ΔQ|`, as plain SJoin
    * does, and both must end with plain SJoin's full join. Returns the number
    * of combined tuples the FK engines inserted.
    */
  def checkFk(q: JoinQuery, fks: Seq[FkSpec], stream: Seq[(String, Array[Long])]): Long = {
    val plain = new SJoinEngine(q, 1, 7)
    val opts = Vector("FkEngine.rs" -> FkEngine.rs(q, fks, 1, 7), "FkEngine.sj" -> FkEngine.sj(q, fks, 1, 7))
    val sj = opts(1)._2.inner.reservoir
    for (((rel, t), step) <- stream.zipWithIndex) {
      val before = (plain.reservoir.itemsOffered, sj.itemsOffered)
      plain.insert(rel, t.clone())
      opts.foreach(_._2.insert(rel, t.clone()))
      assert(sj.itemsOffered - before._2 == plain.reservoir.itemsOffered - before._1,
        s"${q.relations.mkString(" ")} with $fks, step $step ($rel ${t.mkString(",")}): " +
          s"SJoin_opt offered ${sj.itemsOffered - before._2}, |ΔQ| = ${plain.reservoir.itemsOffered - before._1}")
    }
    val full = counts((0L until plain.fullCount).flatMap(z => plain.index.retrieveFull(0, z)))
    for ((name, e) <- opts) {
      val rows = (0L until e.inner.fullCount).flatMap(z => e.inner.index.retrieveFull(0, z))
      assert(counts(rows) == full, s"${q.relations.mkString(" ")} with $fks: $name's full join differs")
    }
    opts(0)._2.simulatedInserts
  }
}
