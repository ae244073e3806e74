package repro.core

/** GD-DCCS (Fig. 2): generate all C(l, s) candidate d-CCs, then pick k of
  * them greedily by marginal cover gain. (1 - 1/e)-approximate.
  *
  * Selection is the paper's O(k·|F|·n) scan on purpose — the k-scaling
  * behaviour of GD-DCCS in Fig. 22/23 comes from exactly this term.
  */
object GreedyDCCS {

  def run(g: MLGraph, d: Int, s: Int, k: Int): Output = {
    Algo.requireParams(g.numLayers, s, k)
    val t0 = System.nanoTime()
    var dccCalls = 0

    // Lines 1-3 + preprocessing: per-layer d-cores (on the pruned graph).
    val pre = Preprocess.vertexDeletion(g, d, s)
    dccCalls += g.numLayers * pre.rounds

    // Lines 4-7: one candidate per layer subset of size s, computed inside
    // the intersection bound of Lemma 1.
    val candidates = (0 until g.numLayers).combinations(s).map { combo =>
      val bound = SetOps.intersectAll(combo.map(pre.layerCores))
      dccCalls += 1
      val cc =
        if (bound.isEmpty) Array.empty[Int]
        else Dcc.compute(g, combo.toArray, d, bound)
      Core(combo.toVector, cc)
    }.toVector

    val (picked, coverSize) = greedySelect(candidates, k)
    Output(picked, coverSize,
      Stats(dccCalls, candidates.length,
            (System.nanoTime() - t0) / 1000000L))
  }

  /** Lines 8-10: greedy max-cover selection of up to `k` candidates, each
    * pick the first candidate of largest marginal gain. Returns the picks
    * and the size of their cover.
    */
  def greedySelect(candidates: Seq[Core], k: Int): (Vector[Core], Int) = {
    val covered = new java.util.BitSet()
    val picked = Vector.newBuilder[Core]
    val remaining = scala.collection.mutable.ArrayBuffer.from(candidates)
    var j = 0
    while (j < k && remaining.nonEmpty) {
      var bestIdx = 0; var bestGain = -1
      var i = 0
      while (i < remaining.length) {
        var gain = 0
        remaining(i).vertices.foreach(v => if (!covered.get(v)) gain += 1)
        if (gain > bestGain) { bestGain = gain; bestIdx = i }
        i += 1
      }
      val best = remaining.remove(bestIdx)
      best.vertices.foreach(covered.set)
      picked += best
      j += 1
    }
    (picked.result(), covered.cardinality())
  }
}
