package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryException

import repro.{SparkSpec, TestKit}
import repro.core.{OracleCheck, ReservoirJoinEngine}
import repro.data.StreamGen
import repro.queries.Queries

class StreamingReservoirJoinSpec extends SparkSpec {

  private def tagged(stream: Seq[(String, Array[Long])]): Seq[TaggedTuple] =
    stream.zipWithIndex.map { case ((rel, v), i) => TaggedTuple(i.toLong, rel, v.toSeq) }

  private def runStreaming(stream: Seq[(String, Array[Long])], chunks: Int,
                           k: Int, seed: Long): Seq[SampleSnapshot] = {
    val data = tagged(stream)
    runBatches(data.grouped(math.max(1, data.size / chunks)).toSeq, k, seed)
  }

  /** Feed each of `batches` to the operator as its own micro-batch. */
  private def runBatches(batches: Seq[Seq[TaggedTuple]], k: Int, seed: Long): Seq[SampleSnapshot] = {
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = session.sqlContext
    val ms = MemoryStream[TaggedTuple]
    val out = StreamingReservoirJoin.attach(ms.toDS(), Queries.lineK(3), k, seed)
    val sinkName = s"snapshots_${System.nanoTime()}"
    val query = out.writeStream
      .format("memory")
      .queryName(sinkName)
      .outputMode("update")
      .start()
    try {
      // One processAllAvailable per chunk forces a separate micro-batch each,
      // exercising the state-store round trip between triggers.
      batches.foreach { chunk =>
        ms.addData(chunk)
        query.processAllAvailable()
      }
    } finally if (query.isActive) query.stop()
    session.table(sinkName).as[SampleSnapshot].collect().toSeq.sortBy(_.lastSeq)
  }

  test("streaming operator produces a valid final sample (subset of the join)") {
    val es = StreamGen.graphEdges(60, 14, 5)
    val stream = StreamGen.lineK(3, es, 5).stream
    val snaps = runStreaming(stream, chunks = 4, k = 20, seed = 9)
    assert(snaps.nonEmpty)
    val last = snaps.last
    assert(last.tuplesSeen === stream.size.toLong)
    val all = OracleCheck.bruteJoin(Queries.lineK(3), stream)
    assert(last.sampleSize === math.min(20, all.size))
    assert(last.rows.toSet.subsetOf(all), "streamed sample outside the join")
  }

  test("streaming operator with k >= |Q| covers the whole join across micro-batches") {
    val es = StreamGen.graphEdges(40, 12, 8)
    val stream = StreamGen.lineK(3, es, 8).stream
    val snaps = runStreaming(stream, chunks = 5, k = 100000, seed = 3)
    val all = OracleCheck.bruteJoin(Queries.lineK(3), stream)
    assert(snaps.last.rows.toSet === all)
  }

  test("state round-trip equals a single-process engine run (same seed)") {
    // The operator is deterministic given (stream order, seed): its final
    // sample must equal the plain in-process engine's.
    val es = StreamGen.graphEdges(50, 12, 21)
    val stream = StreamGen.lineK(3, es, 21).stream
    val snaps = runStreaming(stream, chunks = 6, k = 15, seed = 77)
    val engine = new ReservoirJoinEngine(Queries.lineK(3), 15, 77)
    stream.foreach { case (r, t) => engine.insert(r, t) }
    assert(snaps.last.rows.toSet === engine.sample.toSet)
  }

  test("engine serialization round-trips byte-for-byte behaviour") {
    TestKit.forCases(3) { rng =>
      val es = StreamGen.graphEdges(40, 12, rng.nextLong())
      val stream = StreamGen.lineK(3, es, rng.nextLong()).stream
      val (a, b) = stream.splitAt(stream.size / 2)
      val e1 = new ReservoirJoinEngine(Queries.lineK(3), 10, 5)
      a.foreach { case (r, t) => e1.insert(r, t) }
      val e2 = StreamingReservoirJoin.deserialize(StreamingReservoirJoin.serialize(e1))
      // continue both independently: identical RNG state ⇒ identical samples
      b.foreach { case (r, t) => e1.insert(r, t) }
      b.foreach { case (r, t) => e2.insert(r, t) }
      assert(e1.sample === e2.sample)
      e2.trees.foreach(_.checkInvariants())
    }
  }

  test("snapshots expose monotone progress") {
    val es = StreamGen.graphEdges(45, 12, 31)
    val stream = StreamGen.lineK(3, es, 31).stream
    val snaps = runStreaming(stream, chunks = 5, k = 10, seed = 1)
    assert(snaps.map(_.tuplesSeen) === snaps.map(_.tuplesSeen).sorted)
    assert(snaps.map(_.sampleSize) === snaps.map(_.sampleSize).sorted)
  }

  /** The `IllegalArgumentException` that stopped the operator fed `batches`. */
  private def rejection(batches: Seq[Seq[TaggedTuple]]): IllegalArgumentException = {
    val e = intercept[StreamingQueryException](runBatches(batches, k = 5, seed = 1))
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
      .getOrElse(fail(s"no IllegalArgumentException behind $e"))
  }

  test("a micro-batch whose seqs do not follow the last absorbed seq fails the query") {
    val data = tagged(StreamGen.lineK(3, StreamGen.graphEdges(40, 12, 8), 8).stream.take(20))
    val replayed = data.slice(5, 15) // seqs 5..14 after the first batch's 0..9
    val iae = rejection(Seq(data.take(10), replayed))
    assert(iae.getMessage.contains("seq 5 does not follow seq 9"), iae.getMessage)
  }

  test("a micro-batch repeating a seq fails the query") {
    val data = tagged(StreamGen.lineK(3, StreamGen.graphEdges(40, 12, 8), 8).stream.take(10))
    val iae = rejection(Seq((data.take(4) :+ data(3)) ++ data.drop(4)))
    assert(iae.getMessage.contains("seq 3 does not follow seq 3"), iae.getMessage)
  }
}
