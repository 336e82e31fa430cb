package repro.core

import scala.collection.mutable

import repro.{SparkSpec, TestKit}

/** The key dictionary against a map model: dense ids in first-seen order
  * at widths 0–3, lookups that add nothing, keys read in place through
  * positions, chains of colliding hashes, growth across rehashes, and a loud
  * failure at the capacity.
  */
class KeyDictSpec extends SparkSpec {

  /** Add `keys` in order, checking `find`, `idOf`, `size` and `key` against
    * a model that numbers new keys 0, 1, 2, … (`find` gives -1 for a key not
    * yet added, and adds none), then look every key up again, which must add
    * none; each key is read from a wider tuple through shuffled positions.
    */
  private def checkAgainstModel(d: KeyDict, keys: Seq[Seq[Long]], rng: Rng): Unit = {
    val model = mutable.LinkedHashMap.empty[Seq[Long], Int]
    val w = d.width
    def place(key: Seq[Long]): (Array[Long], Array[Int]) = {
      // The key sits at positions idx of a tuple of 2w + 1 values.
      val idx = rng.shuffle((0 until 2 * w + 1).toVector).take(w).toArray
      val t = Array.fill(2 * w + 1)(-rng.nextLong(1000) - 1)
      for (i <- 0 until w) t(idx(i)) = key(i)
      (t, idx)
    }
    for (key <- keys) {
      val (t, idx) = place(key)
      val expected = model.getOrElse(key, -1)
      assert(d.find(t, idx) === expected && d.size === model.size, "find added a key")
      val id = d.idOf(t, idx)
      if (expected < 0) { assert(id === model.size, s"new key ${key.mkString(",")}"); model(key) = id }
      else assert(id === expected)
      assert(d.size === model.size)
    }
    for ((key, id) <- model) {
      val (t, idx) = place(key)
      assert(d.find(t, idx) === id && d.idOf(t, idx) === id && d.key(id) === key)
    }
    assert(d.size === model.size, "a lookup of a known key added one")
  }

  private implicit class Shuffle(rng: Rng) {
    def shuffle[A](xs: Vector[A]): Vector[A] = {
      val a = xs.toBuffer
      for (i <- a.indices.reverse if i > 0) { val j = rng.nextInt(i + 1); val x = a(i); a(i) = a(j); a(j) = x }
      a.toVector
    }
  }

  for (w <- 0 to 3) {
    test(s"width $w: ids are dense, in first-seen order, and found in place") {
      TestKit.forCases(5, seed0 = 300 + w) { rng =>
        val d = new KeyDict(w)
        val keys = Vector.fill(400)(Vector.fill(w)(rng.nextLong(6) - 2))
        checkAgainstModel(d, keys, rng)
        if (w == 0) assert(d.size === 1)
      }
    }
  }

  test("colliding hashes share a probe chain, across rehashes") {
    val rng = new Rng(77)
    // Width 2: the hash is mix(mix(Seed ^ a) ^ b), so (a, b) and
    // (a', mix(Seed ^ a) ^ mix(Seed ^ a') ^ b) hash alike, all 64 bits.
    def inner(a: Long): Long = KeyDict.mix(KeyDict.Seed ^ a)
    val same = (0L until 200L).map(a => Vector(a, inner(0L) ^ inner(a) ^ 5L))
    val two = Array(0, 1)
    assert(same.map(k => KeyDict.hash(k.toArray, two)).distinct.size === 1)
    checkAgainstModel(new KeyDict(2), rng.shuffle(same.toVector ++ same.take(50)), rng)
    // Width 1: values whose hashes agree in their low 16 bits collide in
    // every table up to 2^16 slots.
    val one = Array(0)
    val target = KeyDict.hash(Array(0L), one).toInt & 0xffff
    val low = Iterator.from(1).map(_.toLong).filter(v => (KeyDict.hash(Array(v), one).toInt & 0xffff) == target)
      .take(40).toVector :+ 0L
    checkAgainstModel(new KeyDict(1), rng.shuffle(low.map(Vector(_)) ++ low.take(10).map(Vector(_))), rng)
  }

  test("growth across rehashes keeps every id") {
    val rng = new Rng(5)
    for (w <- 1 to 2) {
      val d = new KeyDict(w)
      val keys = Vector.fill(50000)(Vector.fill(w)(rng.nextLong(1L << 40)))
      checkAgainstModel(d, keys, rng)
      assert(d.size === keys.distinct.size)
    }
  }

  test("a key past the capacity throws an IllegalStateException; known keys still resolve") {
    val d = new KeyDict(1, capacity = 3)
    val one = Array(0)
    for (v <- 0L until 3L) assert(d.idOf(Array(v * 10), one) === v.toInt)
    val e = intercept[IllegalStateException](d.idOf(Array(99L), one))
    assert(e.getMessage.contains("full at 3"), e.getMessage)
    assert(d.size === 3)
    intercept[IllegalStateException](d.idOf(Array(99L), one)) // still absent
    assert(d.idOf(Array(20L), one) === 2)
    val empty = new KeyDict(0, capacity = 1)
    assert(empty.idOf(Array(1L), Array.empty[Int]) === 0 && empty.idOf(Array(2L), Array.empty[Int]) === 0)
    intercept[IllegalArgumentException](new KeyDict(1, capacity = KeyDict.MaxKeys + 1))
  }
}
