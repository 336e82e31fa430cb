package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

import repro.core.{JoinQuery, ReservoirJoinEngine}

/** One streamed tuple: global sequence number (defines the logical stream
  * order; unique, and increasing from one micro-batch to the next),
  * relation name, attribute values.
  */
final case class TaggedTuple(seq: Long, rel: String, v: Seq[Long])

/** Reservoir snapshot emitted after each micro-batch. */
final case class SampleSnapshot(
    lastSeq: Long,
    tuplesSeen: Long,
    sampleSize: Int,
    rows: Seq[Map[String, Long]],
)

/** Structured Streaming integration (the distributed-dataflow mapping of the
  * paper): the RSJoin engine lives in the state store of a stateful operator
  * (`flatMapGroupsWithState`), absorbs each micro-batch's tuples in sequence
  * order, and emits a [[SampleSnapshot]] per trigger.
  *
  * Reservoir sampling over a join is inherently a sequential global fold —
  * the reservoir state after tuple i conditions the treatment of tuple i+1 —
  * so the operator is keyed by a single logical group; Spark provides the
  * micro-batching, exactly-once state management, and recovery. This is the
  * documented extension point for custom stateful streaming logic (DESIGN.md
  * "Layering").
  */
object StreamingReservoirJoin {

  def serialize(e: ReservoirJoinEngine): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(e); oos.close()
    bos.toByteArray
  }

  def deserialize(b: Array[Byte]): ReservoirJoinEngine = {
    val ois = new ObjectInputStream(new ByteArrayInputStream(b))
    try ois.readObject().asInstanceOf[ReservoirJoinEngine] finally ois.close()
  }

  /** Attach the stateful sampling operator to a stream of tagged tuples.
    * Use with `OutputMode.Update` on the sink. The state holds the last seq
    * absorbed and the serialized engine; a micro-batch whose seqs do not all
    * come after that seq, or that repeats a seq, fails the query with an
    * `IllegalArgumentException` naming both seqs.
    */
  def attach(input: Dataset[TaggedTuple], query: JoinQuery, k: Int, seed: Long,
             grouping: Boolean = false): Dataset[SampleSnapshot] = {
    implicit val snapshotEnc: Encoder[SampleSnapshot] = Encoders.product[SampleSnapshot]
    implicit val stateEnc: Encoder[(Long, Array[Byte])] =
      Encoders.tuple(Encoders.scalaLong, Encoders.BINARY)
    implicit val keyEnc: Encoder[Int] = Encoders.scalaInt

    input
      .groupByKey(_ => 0)
      .flatMapGroupsWithState[(Long, Array[Byte]), SampleSnapshot](
        OutputMode.Update(), GroupStateTimeout.NoTimeout()) {
        (_: Int, tuples: Iterator[TaggedTuple], state: GroupState[(Long, Array[Byte])]) =>
          val prev = state.getOption
          val ordered = tuples.toArray.sortBy(_.seq)
          var last = prev.map(_._1)
          for (t <- ordered) {
            for (l <- last)
              require(t.seq > l, s"out-of-order stream: tuple seq ${t.seq} does not follow seq $l")
            last = Some(t.seq)
          }
          val engine = prev.map(p => deserialize(p._2))
            .getOrElse(new ReservoirJoinEngine(query, k, seed, grouping))
          ordered.foreach(t => engine.insert(t.rel, t.v.toArray))
          state.update((last.get, serialize(engine)))
          val sample = engine.sample
          Iterator.single(SampleSnapshot(last.get, engine.inserts, sample.size, sample))
      }
  }
}
