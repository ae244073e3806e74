package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** Distributed DCCS drivers.
  *
  * The bulk phases — vertex-deletion preprocessing and per-layer d-cores —
  * run as DataFrame dataflow; the search phase (thousands of tiny dCC calls
  * on already-pruned subgraphs) then runs on the collected pruned graph,
  * mirroring the paper's single-machine search. `greedyDistributed` is the
  * fully-dataflow GD variant in which *every* candidate d-CC is a
  * DataFrame peel — used to validate the distributed path end-to-end
  * (each candidate is its own Spark job chain, so it is test-scale only).
  */
object SparkDCCS {

  /** Distributed preprocessing + local search. `numVertices` is the vertex
    * universe size of the edge DataFrame.
    */
  def run(spark: SparkSession, edges: DataFrame, numLayers: Int, numVertices: Int,
          algo: Algo, d: Int, s: Int, k: Int): Output = {
    val pruned = SparkGraph.vertexDeletionDF(spark, edges, numLayers, d, s)
    val g = SparkGraph.toLocal(pruned, numLayers, numVertices)
    // The local vertex-deletion pass converges in one round on the already
    // distributed-pruned graph; keeping it on makes the outputs bit-identical
    // to the purely local algorithms.
    algo.run(g, d, s, k)
  }

  /** GD-DCCS with every candidate d-CC computed by DataFrame peeling. */
  def greedyDistributed(spark: SparkSession, edges: DataFrame, numLayers: Int,
                        d: Int, s: Int, k: Int): Output = {
    Algo.requireParams(numLayers, s, k)
    val t0 = System.nanoTime()
    val pruned = SparkGraph.vertexDeletionDF(spark, edges, numLayers, d, s)
    var dccCalls = 0
    val candidates = (0 until numLayers).combinations(s).map { combo =>
      dccCalls += 1
      val cc = SparkGraph.collectVertices(
        SparkGraph.dccDF(spark, pruned, combo, d))
      Core(combo.toVector, cc)
    }.toVector

    val (picked, coverSize) = GreedyDCCS.greedySelect(candidates, k)
    Output(picked, coverSize,
      Stats(dccCalls, candidates.length,
            (System.nanoTime() - t0) / 1000000L))
  }
}
