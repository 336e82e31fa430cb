package repro.core

import repro.{SparkSpec, TestKit}

class Pow2Spec extends SparkSpec {

  test("ceilPow2 of 0 is 0 (empty subtree convention)") {
    assert(Pow2.ceilPow2(0) === 0L)
  }

  test("ceilPow2 fixes powers of two") {
    for (i <- 0 to 60) assert(Pow2.ceilPow2(1L << i) === (1L << i))
  }

  test("ceilPow2 rounds up strictly between powers") {
    assert(Pow2.ceilPow2(3) === 4L)
    assert(Pow2.ceilPow2(5) === 8L)
    assert(Pow2.ceilPow2(1023) === 1024L)
    assert(Pow2.ceilPow2((1L << 40) + 1) === (1L << 41))
  }

  test("ceilPow2 throws past the cap") {
    assert(Pow2.ceilPow2(Pow2.Cap) === Pow2.Cap)
    assert(Pow2.ceilPow2(Pow2.Cap - 1) === Pow2.Cap)
    intercept[ArithmeticException](Pow2.ceilPow2(Pow2.Cap + 1))
    intercept[ArithmeticException](Pow2.ceilPow2(Long.MaxValue / 2))
  }

  test("ceilPow2 property: x <= ceilPow2(x) < 2x for x >= 1") {
    TestKit.forCases(500) { rng =>
      val x = 1L + rng.nextLong(1L << 59)
      val c = Pow2.ceilPow2(x)
      assert(Pow2.isPow2(c))
      assert(x <= c && c < 2 * x)
    }
  }

  test("log2 inverts powers of two") {
    for (i <- 0 to 61) assert(Pow2.log2(1L << i) === i)
  }

  test("log2 rejects non-powers") {
    intercept[IllegalArgumentException](Pow2.log2(3))
    intercept[IllegalArgumentException](Pow2.log2(0))
  }

  test("mulCap multiplies when safe") {
    assert(Pow2.mulCap(1L << 20, 1L << 20) === (1L << 40))
    assert(Pow2.mulCap(0, 1L << 50) === 0L)
    assert(Pow2.mulCap(7, 9) === 63L)
  }

  test("mulCap throws past the cap instead of saturating") {
    assert(Pow2.mulCap(1L << 30, 1L << 31) === Pow2.Cap)
    intercept[ArithmeticException](Pow2.mulCap(1L << 40, 1L << 40))
    intercept[ArithmeticException](Pow2.mulCap(Pow2.Cap, 3))
  }

  test("mulCap fold equals the product up to the cap and throws past it, in any order") {
    TestKit.forCases(300) { rng =>
      val exps = List.fill(5)(rng.nextInt(26))
      val vals = exps.map(e => 1L << e)
      val trueExp = exps.sum
      for (order <- Seq(vals, vals.reverse)) {
        if (trueExp > 61) intercept[ArithmeticException](order.foldLeft(1L)(Pow2.mulCap))
        else assert(order.foldLeft(1L)(Pow2.mulCap) === 1L << trueExp)
      }
    }
  }
}
