package repro.core

import scala.collection.mutable
import scala.util.control.Breaks

/** BU-DCCS (Section IV, Figs. 3 & 7): bottom-up DFS over the layer-subset
  * search tree, interleaving candidate generation with top-k maintenance.
  *
  * Pruning: Lemma 2 (Eq. (1) on the candidate kills the subtree), Lemma 3
  * (order-based early break on |C_L ∩ C^d(G_j)|), Lemma 4 (layer pruning via
  * the `L_Q` exclusion set). Preprocessing (Section IV-C): vertex deletion,
  * sorting layers desc by |C^d(G_i)|, and greedy InitTopK — each is
  * independently toggleable for the Fig. 28 ablation.
  *
  * 1/4-approximate (Theorem 3).
  */
object BottomUpDCCS {

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Config = Config()): Output = {
    // Lines 1-7 and 9: vertex deletion, then layers sorted in descending
    // order of |C^d(G_i)|.
    val ctx = new SearchContext(g, d, s, k, cfg, c => -c.length)
    import ctx.{candidates, cores, dccCalls, mkCore, order, pre, topk}
    val l = g.numLayers

    // Line 8: InitTopK (Appendix D).
    ctx.initTopK()

    // Procedure BU-Gen (Fig. 3), positions ascending in `L`.
    def buGen(L: List[Int], cL: Array[Int], lQ: Set[Int]): Unit = {
      val maxL = if (L.isEmpty) -1 else L.last
      val lP = ((maxL + 1) until l).filterNot(lQ)
      val lR = mutable.ArrayBuffer.empty[Int]
      val childCore = mutable.HashMap.empty[Int, Array[Int]]

      // `candidates` counts generated size-s candidate d-CCs (comparable to
      // GD's C(l,s)); interior tree nodes are counted in dccCalls only.
      def candidate(j: Int, bound: Array[Int]): Array[Int] = {
        dccCalls += 1
        if (L.length + 1 == s) candidates += 1
        if (bound.isEmpty) Array.empty[Int]
        else Dcc.compute(g, (L :+ j).map(order).toArray, d, bound)
      }

      if (topk.size < k) {
        // Lines 2-9: no pruning available yet.
        lP.foreach { j =>
          val cc = candidate(j, SetOps.intersect(cL, cores(j)))
          if (L.length + 1 == s) topk.tryUpdate(mkCore(L :+ j, cc))
          else { lR += j; childCore(j) = cc }
        }
      } else {
        // Lines 10-22: order by |C_L ∩ C^d(G_j)| desc, break per Lemma 3,
        // keep per Eq. (1) (Lemma 2), record prunes for Lemma 4.
        val sorted = lP.map(j => (j, SetOps.intersect(cL, cores(j))))
          .sortBy { case (_, b) => -b.length }
        val brk = new Breaks
        brk.breakable {
          sorted.foreach { case (j, bound) =>
            if (bound.length < topk.orderPruneThreshold) brk.break()
            val cc = candidate(j, bound)
            if (L.length + 1 == s) topk.tryUpdate(mkCore(L :+ j, cc))
            else if (topk.satisfiesEq1(cc)) { lR += j; childCore(j) = cc }
          }
        }
      }

      // Lines 23-26: recurse; Lemma 4 forbids the pruned expansions below.
      if (L.length + 1 < s) {
        val lQChild = lQ ++ (lP.toSet -- lR)
        lR.foreach(j => buGen(L :+ j, childCore(j), lQChild))
      }
    }

    if (s >= 1) buGen(Nil, pre.active, Set.empty)

    ctx.output()
  }
}
