package repro.core.baseline

import scala.collection.mutable.ArrayBuffer

import repro.{SparkSpec, TestKit}

class FenwickSpec extends SparkSpec {

  /** `f.search(z, offset)` as (slot, residual). */
  private def search(f: Fenwick, z: Long): (Int, Long) = {
    val offset = new Array[Long](1)
    val slot = f.search(z, offset)
    (slot, offset(0))
  }

  test("append + prefix matches a reference array") {
    val f = new Fenwick
    val ref = ArrayBuffer[Long]()
    for (w <- Seq(3L, 0L, 5L, 2L, 0L, 7L)) { f.append(w); ref += w }
    for (i <- 0 to ref.length)
      assert(f.prefix(i) === ref.take(i).sum, s"prefix($i)")
  }

  test("add adjusts point weights") {
    val f = new Fenwick
    Seq(1L, 1L, 1L, 1L).foreach(f.append)
    f.add(2, 10)
    assert(f.weight(2) === 11L)
    assert(f.total === 14L)
  }

  test("growth across capacity boundaries preserves sums") {
    val f = new Fenwick
    val ref = ArrayBuffer[Long]()
    for (i <- 0 until 200) { f.append(i.toLong % 7); ref += i.toLong % 7 }
    assert(f.total === ref.sum)
    for (i <- Seq(0, 15, 16, 17, 31, 63, 127, 199))
      assert(f.weight(i) === ref(i), s"weight($i)")
  }

  test("search finds the owning slot and residual") {
    val f = new Fenwick
    Seq(3L, 0L, 5L).foreach(f.append) // ranges: [0,3) -> 0, [3,8) -> 2
    assert(search(f, 0) === ((0, 0L)))
    assert(search(f, 2) === ((0, 2L)))
    assert(search(f, 3) === ((2, 0L)))
    assert(search(f, 7) === ((2, 4L)))
    intercept[IllegalArgumentException](search(f, 8))
    intercept[IllegalArgumentException](search(f, -1))
  }

  test("search skips zero-weight slots everywhere") {
    val f = new Fenwick
    Seq(0L, 2L, 0L, 0L, 1L, 0L).foreach(f.append)
    assert(search(f, 0)._1 === 1)
    assert(search(f, 1)._1 === 1)
    assert(search(f, 2)._1 === 4)
  }

  test("randomized search/update agreement with a reference array") {
    TestKit.forCases(100) { rng =>
      val n = 1 + rng.nextInt(60)
      val ref = ArrayBuffer.fill(n)(rng.nextLong(10))
      val f = new Fenwick
      ref.foreach(f.append)
      // random point updates
      for (_ <- 0 until 20) {
        val i = rng.nextInt(n)
        val nw = rng.nextLong(10)
        f.add(i, nw - ref(i)); ref(i) = nw
      }
      val total = ref.sum
      assert(f.total === total)
      if (total > 0) {
        // check every position maps to the correct slot
        var z = 0L
        for (i <- 0 until n; r <- 0L until ref(i)) {
          assert(search(f, z) === ((i, r)), s"z=$z")
          z += 1
        }
      }
    }
  }
}
