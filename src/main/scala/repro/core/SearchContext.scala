package repro.core

/** Preprocessing steps of BU-DCCS and TD-DCCS (Section IV-C), each
  * independently toggleable for the Fig. 28 ablation.
  */
final case class Config(vertexDeletion: Boolean = true,
                        sortLayers: Boolean = true,
                        initTopK: Boolean = true)

/** The part of a BU-DCCS or TD-DCCS run that both share: BU-DCCS lines 1-8,
  * which TD-DCCS reuses unchanged. Holds the vertex-deletion state, the layer
  * order, the per-position d-cores, the work counters, and the temporary
  * top-k set `R` with its greedy InitTopK.
  *
  * The algorithms work in position space: position p denotes original layer
  * `order(p)`.
  *
  * @param sortKey key on a layer's d-core that orders the layers when
  *                `cfg.sortLayers` is set (BU: descending size, TD: ascending)
  */
final class SearchContext(g: MLGraph, d: Int, s: Int, k: Int, cfg: Config,
                          sortKey: Array[Int] => Int) {
  Algo.requireParams(g.numLayers, s, k)
  private val t0 = System.nanoTime()
  private val l = g.numLayers

  // BU-DCCS lines 1-7: vertex deletion.
  val pre: Preprocess.State = Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion)

  /** dCC peels issued, including the `l` per vertex-deletion round. */
  var dccCalls: Int = l * pre.rounds

  /** Size-s candidate d-CCs generated (comparable to GD's C(l, s)). */
  var candidates: Int = 0

  val order: Array[Int] =
    if (cfg.sortLayers) (0 until l).sortBy(i => sortKey(pre.layerCores(i))).toArray
    else Array.range(0, l)

  /** d-core of the layer at each position. */
  val cores: Array[Array[Int]] = order.map(pre.layerCores)

  val topk = new TopKDiversified(k)

  def mkCore(positions: Seq[Int], vs: Array[Int]): Core =
    Core(positions.map(order).sorted.toVector, vs)

  /** BU-DCCS line 8: InitTopK (Appendix D), when `cfg.initTopK` is set. Each
    * of k rounds starts from the layer whose d-core most enlarges Cov(R), adds
    * layers greedily by intersection size up to s, and offers the d-CC of
    * that label to R.
    */
  def initTopK(): Unit = if (cfg.initTopK) {
    var p = 0
    while (p < k) {
      val covered = new java.util.BitSet(g.numVertices)
      topk.result.foreach(_.vertices.foreach(covered.set))
      val i = (0 until l).maxBy(j => cores(j).count(v => !covered.get(v)))
      var L = List(i)
      var c = cores(i)
      var q = 1
      while (q < s) {
        val j = (0 until l).filterNot(L.contains)
          .maxBy(j2 => SetOps.intersect(c, cores(j2)).length)
        c = SetOps.intersect(c, cores(j))
        L = j :: L
        q += 1
      }
      dccCalls += 1
      candidates += 1
      val cc = if (c.isEmpty) Array.empty[Int] else Dcc.compute(g, L.map(order).toArray, d, c)
      topk.tryUpdate(mkCore(L, cc))
      p += 1
    }
  }

  def output(): Output =
    Output(topk.result, topk.covSize,
      Stats(dccCalls, candidates, (System.nanoTime() - t0) / 1000000L))
}
