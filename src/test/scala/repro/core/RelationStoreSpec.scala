package repro.core

import repro.SparkSpec

/** Tuple ids are `Int`s: a store refuses a tuple whose id would pass its
  * capacity, and the arrays indexed by ids grow without overflowing.
  */
class RelationStoreSpec extends SparkSpec {

  test("insert past the store's capacity throws an IllegalStateException naming the relation") {
    val store = new RelationStore(RelSchema("R", Vector("a", "b")), capacity = 3)
    store.ensureIndex(Vector("a"))
    for (i <- 0 until 3) assert(store.insert(Array(i.toLong % 2, i.toLong)) === i)
    val e = intercept[IllegalStateException](store.insert(Array(0L, 3L)))
    assert(e.getMessage.startsWith("R:"), e.getMessage)
    assert(store.size === 3)
    assert(store.lookup(Vector("a"), Vector(0L)).toVector === Vector(0, 2))
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
