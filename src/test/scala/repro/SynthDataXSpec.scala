package repro

import repro.data.StreamGen
import repro.queries.Queries

class SynthDataXSpec extends SparkSpec {

  test("graphEdges is deterministic, distinct, loop-free") {
    val a = StreamGen.graphEdges(500, 100, 7)
    val b = StreamGen.graphEdges(500, 100, 7)
    assert(a === b)
    assert(a.distinct.size === 500)
    assert(a.forall { case (s, d) => s != d && s >= 1 && s <= 100 && d >= 1 && d <= 100 })
  }

  test("graphEdges is skewed (top node well above the mean degree)") {
    val es = StreamGen.graphEdges(2000, 500, 7)
    val topOut = es.groupBy(_._1).map(_._2.size).max
    assert(topOut > 3 * 2000 / 500, s"top out-degree $topOut not skewed")
  }

  test("edgesDf round-trips the edge list") {
    val es = StreamGen.graphEdges(200, 50, 3)
    val df = SynthDataX.edgesDf(spark, es)
    assert(df.count() === 200L)
    assert(df.columns.toSeq === Seq("src", "dst"))
    val back = df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(back === es.toSet)
  }

  test("workloadTables creates one table per relation with the right schema") {
    val w = StreamGen.qz(0.05, 3)
    val tables = SynthDataX.workloadTables(spark, w)
    assert(tables.map(_._1) === w.query.relations.map(_.name))
    for ((name, df) <- tables) {
      val schema = w.query.relations(w.query.relIdx(name))
      assert(df.columns.toSeq === schema.attrs)
      assert(df.count() > 0, s"$name empty")
    }
  }

  test("naturalJoinSql emits each attribute once and joins shared names") {
    val sql = SynthDataX.naturalJoinSql(Queries.lineK(3))
    assert(sql.contains("g1.v2 = g2.v2"))
    assert(sql.contains("g2.v3 = g3.v3"))
    assert(sql.toLowerCase.contains("from g1, g2, g3"))
    // Spark accepts it over temp views and computes the right path count.
    val es = StreamGen.graphEdges(100, 20, 9)
    val stream = StreamGen.lineK(3, es, 9).stream
    for ((n, df) <- SynthDataX.workloadTables(spark, Queries.lineK(3), stream))
      df.createOrReplaceTempView(n)
    val sparkCount = spark.sql(sql).count()
    // Cross-check against the exact streaming count from the SJoin index.
    val sj = new repro.core.baseline.SJoinEngine(Queries.lineK(3), 1, 1)
    stream.foreach { case (r, t) => sj.updateOnly(r, t) }
    assert(sparkCount === sj.fullCount)
  }

  test("tpcds workload respects preload/stream split") {
    val w = StreamGen.qz(0.05, 3)
    val preRels = w.preload.map(_._1).toSet
    assert(preRels === Set("d1", "d2", "i1", "i2"))
    val streamRels = w.stream.map(_._1).toSet
    assert(streamRels === Set("ss", "c1", "c2"))
  }

  test("q10 workload streams dynamic tables only") {
    val w = StreamGen.q10(0.3, 3)
    assert(w.preload.map(_._1).toSet === Set("tag1", "tag2", "tagclass", "city", "country"))
    assert(w.stream.map(_._1).toSet ===
      Set("message", "hastag1", "hastag2", "person1", "person2", "knows"))
  }

  test("workload streams are duplicate-free per relation (set semantics)") {
    for (w <- Seq(StreamGen.qz(0.05, 3), StreamGen.q10(0.3, 3))) {
      val all = (w.preload ++ w.stream).map { case (r, t) => (r, t.toSeq) }
      assert(all.distinct.size === all.size, s"${w.name} has duplicate tuples")
    }
  }
}
