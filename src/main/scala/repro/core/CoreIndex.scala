package repro.core

import scala.collection.mutable

/** The hierarchical vertex index of Section V-C.
  *
  * Vertices are iteratively removed in batches by growing support threshold
  * `h`: at threshold `h`, each batch removes every surviving vertex with
  * `Num(v) ≤ h` (support = number of layers whose d-core, recomputed on the
  * surviving graph, contains v). `I_h` is the set of vertices removed at
  * threshold `h`; inside `I_h` each batch forms one level, later batches on
  * higher levels. Index edges are the union-graph edges.
  *
  * The paper also labels each vertex with `L(v)`, the layers whose d-core
  * contained it just before its removal; only the Lemma-9 chain discard reads
  * those labels, and TD-DCCS omits that discard (see [[TopDownDCCS]]), so the
  * index keeps just `h` per vertex and the levels.
  *
  * Built once per TD-DCCS run on the preprocessed graph.
  */
final class CoreIndex private (
    /** threshold h at which each vertex was removed; -1 if not indexed. */
    val hOf: Array[Int],
    /** vertices of each level, ascending level id. */
    val levels: Array[Array[Int]],
)

object CoreIndex {

  /** @param g      the multi-layer graph
    * @param order  layer position -> original layer id (TD sort order)
    * @param active vertices surviving preprocessing (sorted)
    */
  def build(g: MLGraph, order: Array[Int], d: Int, active: Array[Int]): CoreIndex = {
    val n = g.numVertices
    val l = g.numLayers
    val hOf = Array.fill(n)(-1)
    val levels = mutable.ArrayBuffer.empty[Array[Int]]

    var act = active
    // membership bitsets of the current per-position d-cores
    def coreBits(): Array[java.util.BitSet] = {
      val bits = new Array[java.util.BitSet](l)
      var p = 0
      while (p < l) {
        val bs = new java.util.BitSet(n)
        Dcc.compute(g, Array(order(p)), d, act).foreach(bs.set)
        bits(p) = bs
        p += 1
      }
      bits
    }

    var bits = coreBits()
    var h = 1
    while (h <= l && act.nonEmpty) {
      var more = true
      while (more && act.nonEmpty) {
        val batch = act.filter { v =>
          var c = 0; var p = 0
          while (p < l) { if (bits(p).get(v)) c += 1; p += 1 }
          c <= h
        }
        if (batch.isEmpty) more = false
        else {
          batch.foreach(hOf(_) = h)
          levels += batch
          val gone = batch.toSet
          act = act.filterNot(gone)
          bits = coreBits()
        }
      }
      h += 1
    }
    // Any stragglers (can only happen if act never empties, which it must —
    // every vertex has Num(v) ≤ l); defensive:
    require(act.isEmpty, s"index construction left ${act.length} vertices unassigned")

    new CoreIndex(hOf, levels.toArray)
  }
}
