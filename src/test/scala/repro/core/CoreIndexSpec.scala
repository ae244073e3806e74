package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class CoreIndexSpec extends AnyFunSuite {

  private def build(seed: Int, d: Int = 2, s: Int = 1) = {
    val g = TestGraphs.random(300 + seed, 25, 4, 0.2)
    val pre = Preprocess.vertexDeletion(g, d, s)
    val order = Array.range(0, g.numLayers)
    (g, pre, CoreIndex.build(g, order, d, pre.active))
  }

  /** Level id of each vertex and its label `L(v)`: the layer positions whose
    * d-core contained v just before its removal. Rebuilt by replaying the
    * index's levels batch by batch on the surviving set (identity order, as
    * in `build`).
    */
  private def replay(g: MLGraph, pre: Preprocess.State, idx: CoreIndex,
                     d: Int = 2): (Array[Int], Array[Array[Int]]) = {
    val levelOf = Array.fill(g.numVertices)(-1)
    val lvOf = new Array[Array[Int]](g.numVertices)
    var act = pre.active
    idx.levels.zipWithIndex.foreach { case (batch, lev) =>
      val cores = DCore.allLayers(g, d, act)
      batch.foreach { v =>
        levelOf(v) = lev
        lvOf(v) = cores.indices.filter(p => SetOps.contains(cores(p), v)).toArray
      }
      act = SetOps.diff(act, batch)
    }
    (levelOf, lvOf)
  }

  for (seed <- 1 to 5) {
    test(s"levels partition the active set (seed=$seed)") {
      val (_, pre, idx) = build(seed)
      val all = idx.levels.flatten.sorted
      assert(all.toSeq == pre.active.toSeq)
      assert(all.distinct.length == all.length)
    }

    test(s"hOf is non-decreasing across levels and L(v) has |L(v)| <= h (seed=$seed)") {
      val (g, pre, idx) = build(seed)
      val (levelOf, lvOf) = replay(g, pre, idx)
      var lastH = 1
      idx.levels.zipWithIndex.foreach { case (vs, lev) =>
        vs.foreach { v =>
          assert(levelOf(v) == lev)
          assert(idx.hOf(v) >= lastH, s"h went backwards at level $lev")
          assert(lvOf(v).length <= idx.hOf(v),
            s"v=$v removed at h=${idx.hOf(v)} but |L(v)|=${lvOf(v).length}")
        }
        if (vs.nonEmpty) lastH = idx.hOf(vs.head)
      }
    }

    test(s"Lemma 8: C_L lives in levels with h >= |L| (seed=$seed)") {
      val (g, pre, idx) = build(seed)
      for (sz <- 1 to 3; combo <- (0 until g.numLayers).combinations(sz).take(4)) {
        val cc = Dcc.compute(g, combo.toArray, 2, pre.active)
        cc.foreach(v => assert(idx.hOf(v) >= sz,
          s"v=$v in C_{${combo.mkString(",")}} but h=${idx.hOf(v)} < $sz"))
      }
    }

    test(s"Lemma 8 Z-filter is lossless for every 2-layer core (seed=$seed)") {
      // This is the (sound) index narrowing RefineC actually uses:
      // peeling inside Z = {v : h(v) >= |L|} returns the exact d-CC.
      val (g, pre, idx) = build(seed)
      (0 until g.numLayers).combinations(2).take(4).foreach { combo =>
        val L = combo.toArray
        val exact = Dcc.compute(g, L, 2, pre.active)
        val z = pre.active.filter(v => idx.hOf(v) >= L.length)
        assert(Dcc.compute(g, L, 2, z).toSeq == exact.toSeq)
      }
    }
  }

  test("Lemma 9's chain property is violated on a concrete instance (documented unsoundness)") {
    // Regression pin for the counterexample that made us drop the paper's
    // chain-reachability discard from RefineC (see TopDownDCCS doc): on this
    // graph a vertex of C_{0,1} has no ascending index chain from a vertex
    // w0 with L ⊆ L(w0), so the Fig. 10 procedure would wrongly discard it.
    val (g, pre, idx) = build(3)
    val (levelOf, lvOf) = replay(g, pre, idx)
    val active = pre.active.toSet
    val violated = (0 until g.numLayers).combinations(2).exists { combo =>
      val L = combo.toArray
      val cc = Dcc.compute(g, L, 2, pre.active)
      val reached = scala.collection.mutable.Set.empty[Int]
      pre.active.sortBy(levelOf).foreach { v =>
        val isStart = SetOps.subsetOf(L, lvOf(v))
        val fromBelow = g.unionAdj(v).exists(u =>
          active(u) && reached(u) && levelOf(u) < levelOf(v))
        if (isStart || fromBelow) reached += v
      }
      cc.exists(v => !reached(v))
    }
    assert(violated, "expected at least one Lemma-9 violation on this pinned instance")
  }

  test("index of empty active set is empty") {
    val g = TestGraphs.random(999, 10, 2, 0.02)
    val idx = CoreIndex.build(g, Array(0, 1), 5, Array.empty[Int])
    assert(idx.levels.isEmpty)
  }
}
