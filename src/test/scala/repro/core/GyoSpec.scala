package repro.core

import scala.collection.mutable

import repro.{SparkSpec, TestKit}
import repro.queries.Queries

/** Cross-checks `JoinTree.unrooted`, which builds a maximum-weight spanning
  * tree of the intersection graph and tests the running-intersection
  * property, against an independent acyclicity test: the GYO reduction
  * (Graham 1979; Yu and Özsoyoğlu 1979). A query is α-acyclic iff GYO
  * reduces its hypergraph to at most one edge.
  */
class GyoSpec extends SparkSpec {
  import GyoSpec._

  private def agree(q: JoinQuery): Boolean = {
    val byGyo = gyoAcyclic(q)
    val tree = JoinTree.unrooted(q)
    assert(tree.isDefined === byGyo, s"${q.relations.mkString(" ")}: GYO says acyclic = $byGyo")
    tree.foreach(es => assertJoinTree(q, es))
    byGyo
  }

  test("GYO agrees with JoinTree.unrooted on the catalog queries") {
    for (k <- 2 to 6) {
      assert(agree(Queries.lineK(k)))
      assert(agree(Queries.starK(k)))
    }
    for (q <- Seq(Queries.qx, Queries.qy, Queries.qz, Queries.q10)) assert(agree(q), q.name)
    assert(!agree(JoinQuery("dumbbell", Queries.dumbbellRelations)))
  }

  test("GYO and JoinTree.unrooted accept random α-acyclic queries") {
    for (n <- 2 to 7) {
      TestKit.forCases(60, seed0 = 9000L + n) { rng =>
        assert(agree(RandomAcyclicSpec.randomQuery(n, rng)))
      }
    }
  }

  test("cyclic near-misses are rejected: triangle, 4-cycle, chains closed by one shared attribute") {
    def q(name: String, rels: Vector[String]*): JoinQuery =
      JoinQuery(name, rels.zipWithIndex.map { case (as, i) => RelSchema(s"r$i", as) }.toVector)
    assert(!agree(q("triangle", Vector("x", "y"), Vector("y", "z"), Vector("z", "x"))))
    assert(!agree(q("4-cycle", Vector("a", "b"), Vector("b", "c"), Vector("c", "d"), Vector("d", "a"))))
    for (k <- 3 to 7) {
      // line-k, whose first and last relations also share the attribute c.
      val rels = (1 to k).map { i =>
        val ends = if (i == 1 || i == k) Vector("c") else Vector.empty
        Vector(s"v$i", s"v${i + 1}") ++ ends
      }
      assert(!agree(q(s"closed line$k", rels: _*)), s"closed line$k")
    }
    // Closing a two-relation chain leaves it acyclic: the near-miss needs three.
    assert(agree(q("closed line2", Vector("v1", "v2", "c"), Vector("v2", "v3", "c"))))
  }

  test("GYO and JoinTree.unrooted agree on random acyclic queries with one extra shared attribute") {
    var cyclic = 0
    var acyclic = 0
    for (n <- 3 to 7) {
      TestKit.forCases(60, seed0 = 9100L + n) { rng =>
        val base = RandomAcyclicSpec.randomQuery(n, rng)
        val a = rng.nextInt(n)
        val b = (a + 1 + rng.nextInt(n - 1)) % n
        val rels = base.relations.zipWithIndex.map { case (r, i) =>
          if (i == a || i == b) RelSchema(r.name, r.attrs :+ "shared") else r
        }
        if (agree(JoinQuery(s"${base.name}+shared", rels))) acyclic += 1 else cyclic += 1
      }
    }
    assert(cyclic > 0 && acyclic > 0, s"cyclic $cyclic, acyclic $acyclic")
  }
}

object GyoSpec {

  /** GYO: repeatedly delete an attribute that occurs in one edge only, or an
    * edge contained in another edge; acyclic iff at most one edge is left.
    */
  def gyoAcyclic(q: JoinQuery): Boolean = {
    var edges = q.relations.map(_.attrs.toSet)
    var changed = true
    while (changed) {
      changed = false
      val occurrences = edges.flatten.groupBy(identity).map { case (a, as) => a -> as.size }
      val lonely = occurrences.collect { case (a, 1) => a }.toSet
      if (lonely.nonEmpty) { edges = edges.map(_ -- lonely); changed = true }
      edges.indices.find(i => edges.indices.exists(j => j != i && edges(i).subsetOf(edges(j)))) match {
        case Some(i) => edges = edges.patch(i, Nil, 1); changed = true
        case None    => ()
      }
    }
    edges.size <= 1
  }

  /** `edges` is a join tree of `q`: a spanning tree of its relations in which
    * the relations holding any one attribute are connected.
    */
  def assertJoinTree(q: JoinQuery, edges: Vector[(Int, Int)]): Unit = {
    val n = q.arity
    assert(edges.size == n - 1, s"${edges.size} edges for $n relations")
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    for ((i, j) <- edges) { adj(i) += j; adj(j) += i }
    def reach(from: Int, allowed: Int => Boolean): Set[Int] = {
      val seen = mutable.Set(from)
      val todo = mutable.Stack(from)
      while (todo.nonEmpty) for (v <- adj(todo.pop()) if allowed(v) && seen.add(v)) todo.push(v)
      seen.toSet
    }
    assert(reach(0, _ => true).size == n, "join tree is not connected")
    for (a <- q.attributes) {
      val holding = (0 until n).filter(q.relations(_).attrs.contains(a)).toSet
      assert(reach(holding.head, holding) == holding, s"relations holding $a are not connected")
    }
  }
}
