package repro.core

import scala.collection.mutable

import repro.SparkSpec

/** Tuple ids are `Int`s: a store refuses a tuple whose id would pass its
  * capacity, and the arrays indexed by ids grow without overflowing. A
  * store's key indexes encode every tuple once, into key-id columns and
  * semijoin lists over dictionaries shared between stores.
  */
class RelationStoreSpec extends SparkSpec {

  /** Semijoin list `k` of `ids`, read through `length` and `apply`. */
  private def list(ids: IdLists, k: Int): Vector[Int] = Vector.tabulate(ids.length(k))(ids(k)(_))

  test("insert past the store's capacity throws an IllegalStateException naming the relation") {
    val store = new ValueStore(RelSchema("R", Vector("a", "b")), capacity = 3)
    val ix = store.ensureIndex(Vector("a"), mutable.HashMap.empty)
    for (i <- 0 until 3) assert(store.insert(Array(i.toLong % 2, i.toLong)) === i)
    val e = intercept[IllegalStateException](store.insert(Array(0L, 3L)))
    assert(e.getMessage.startsWith("R:"), e.getMessage)
    assert(store.size === 3)
    assert(list(ix.ids, ix.dict.idOf(Array(0L), Array(0))) === Vector(0, 2) && ix.dict.size === 2)
  }

  test("key indexes: one key id per tuple, lists in insertion order, backfill, shared dictionaries") {
    val dicts = mutable.HashMap.empty[Vector[String], KeyDict]
    val r = new ValueStore(RelSchema("R", Vector("a", "b", "c")))
    val s = new ValueStore(RelSchema("S", Vector("c", "d", "b")))
    val rows = Vector(Array(1L, 2L, 3L), Array(1L, 5L, 3L), Array(4L, 2L, 3L), Array(1L, 2L, 9L))
    val bc = r.ensureIndex(Vector("b", "c"), dicts)
    r.insert(rows(0)); r.insert(rows(1))
    val ab = r.ensureIndex(Vector("a", "b"), dicts) // backfilled
    assert(r.ensureIndex(Vector("b", "c"), dicts) eq bc)
    r.insert(rows(2)); r.insert(rows(3))
    // Key ids are dense, in first-seen order: (2,3) (5,3) (2,9) and (1,2) (1,5) (4,2).
    assert((0 until 4).map(bc.keyOf) === Vector(0, 1, 0, 2))
    assert((0 until 4).map(ab.keyOf) === Vector(0, 1, 2, 0))
    assert(list(bc.ids, 0) === Vector(0, 2) && list(ab.ids, 0) === Vector(0, 3))
    assert(bc.dict.key(2) === Vector(2L, 9L))
    // S projects (b, c) from other positions, onto the same dictionary.
    val sbc = s.ensureIndex(Vector("b", "c"), dicts)
    assert(sbc.dict eq bc.dict)
    s.insert(Array(9L, 0L, 2L)); s.insert(Array(3L, 0L, 7L))
    assert(sbc.keyOf(0) === 2 && sbc.keyOf(1) === 3 && bc.dict.size === 4)
    assert(bc.ids.length(3) === 0 && list(sbc.ids, 3) === Vector(1))
  }

  test("slot arrays at least double, stop at the tuple-id cap, and throw past it") {
    val max = RelationStore.MaxTuples
    assert(Slots.grownLength(16, 17) === 32)
    assert(Slots.grownLength(16, 1000) === 1000)
    assert(Slots.grownLength(1 << 30, (1 << 30) + 1) === max) // 2^31 is no Int
    assert(Slots.grownLength(max - 1, max) === max)
    intercept[IllegalStateException](Slots.grownLength(max, max + 1))
  }
}
