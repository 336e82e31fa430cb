package repro.data

import scala.util.hashing.MurmurHash3

import repro.SparkSpec

/** The generators' outputs are pinned: a change that makes them faster must
  * keep every tuple, in the same order, for the same seed. The digests were
  * computed before the generators were tuned.
  */
class StreamGenSpec extends SparkSpec {

  /** Length and order-sensitive hash of a tuple sequence. */
  private def digest(ts: Seq[(String, Array[Long])]): (Int, Int) =
    (ts.size, MurmurHash3.orderedHash(ts.iterator.map { case (r, t) => (r, t.toSeq) }))

  private def digest(w: Workload): ((Int, Int), (Int, Int)) = (digest(w.preload), digest(w.stream))

  private val seeds = Seq(42L, 1009L)

  /** The digests per generator call, at seed 42 and then 1009. */
  private val pinned: Seq[(String, Long => Any, Seq[Any])] = Seq(
    ("graphEdges(20000, 4000)", s => {
      val es = StreamGen.graphEdges(20000, 4000, s); (es.size, MurmurHash3.orderedHash(es)) },
      Seq((20000, -1041594039), (20000, -2040107471))),
    ("graphEdges(2000, 600)", s => {
      val es = StreamGen.graphEdges(2000, 600, s); (es.size, MurmurHash3.orderedHash(es)) },
      Seq((2000, -1165639910), (2000, -510535741))),
    ("lineK(3)", s => digest(StreamGen.lineK(3, StreamGen.graphEdges(20000, 4000, s), s)),
      Seq(((0, 66441849), (60000, 1279472450)), ((0, 66441849), (60000, 1582898544)))),
    ("lineK(5)", s => digest(StreamGen.lineK(5, StreamGen.graphEdges(20000, 4000, s), s)),
      Seq(((0, 66441849), (100000, -1026302673)), ((0, 66441849), (100000, 570595714)))),
    ("qz(30)", s => digest(StreamGen.qz(30, s)),
      Seq(((15120, -1066491396), (146400, 969975554)), ((15120, -417815900), (146400, -996263017)))),
    ("q10(1)", s => digest(StreamGen.q10(1.0, s)),
      Seq(((165, -1183052525), (4700, 1188059997)), ((165, 743933740), (4700, 410786122)))),
  )

  for ((name, gen, expected) <- pinned)
    test(s"$name gives its pinned output at seeds ${seeds.mkString(" and ")}") {
      val got = seeds.map(gen)
      assert(got === expected, s"$name: ${got.mkString(", ")}")
    }
}
