package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.graphgen.MLSynth

class SparkDCCSSpec extends SparkSpec {

  private lazy val g = TestGraphs.random(1100, 35, 4, 0.15)
  private lazy val edges = SparkGraph.toDF(spark, g).cache()

  test("distributed-preprocessed GD matches local GD exactly") {
    val sp = SparkDCCS.run(spark, edges, g.numLayers, g.numVertices, Algo.GD, 2, 2, 3)
    val lo = GreedyDCCS.run(g, 2, 2, 3)
    assert(sp.result.map(c => (c.layers, c.vertices.toSeq)) ==
           lo.result.map(c => (c.layers, c.vertices.toSeq)))
    assert(sp.coverSize == lo.coverSize)
  }

  test("distributed-preprocessed BU matches local BU exactly") {
    val sp = SparkDCCS.run(spark, edges, g.numLayers, g.numVertices, Algo.BU, 2, 2, 3)
    val lo = BottomUpDCCS.run(g, 2, 2, 3)
    assert(sp.result.map(c => (c.layers, c.vertices.toSeq)) ==
           lo.result.map(c => (c.layers, c.vertices.toSeq)))
    assert(sp.coverSize == lo.coverSize)
  }

  test("distributed-preprocessed TD matches local TD exactly") {
    val sp = SparkDCCS.run(spark, edges, g.numLayers, g.numVertices, Algo.TD, 2, 3, 3)
    val lo = TopDownDCCS.run(g, 2, 3, 3)
    assert(sp.result.map(c => (c.layers, c.vertices.toSeq)) ==
           lo.result.map(c => (c.layers, c.vertices.toSeq)))
    assert(sp.coverSize == lo.coverSize)
  }

  test("fully-distributed greedy equals local greedy") {
    val small = TestGraphs.random(1101, 25, 3, 0.2)
    val se = SparkGraph.toDF(spark, small)
    val sp = SparkDCCS.greedyDistributed(spark, se, small.numLayers, 2, 2, 3)
    val lo = GreedyDCCS.run(small, 2, 2, 3)
    assert(sp.result.map(c => (c.layers, c.vertices.toSeq)) ==
           lo.result.map(c => (c.layers, c.vertices.toSeq)))
    assert(sp.coverSize == lo.coverSize)
  }

  test("end-to-end on the ppi preset: distributed BU equals local BU") {
    val gen = MLSynth.preset("ppi")
    val pe = SparkGraph.toDF(spark, gen.graph)
    val l = gen.graph.numLayers
    val sp = SparkDCCS.run(spark, pe, l, gen.graph.numVertices, Algo.BU, 4, 3, 10)
    val lo = BottomUpDCCS.run(gen.graph, 4, 3, 10)
    assert(sp.coverSize == lo.coverSize)
    assert(sp.result.map(_.layers).toSet == lo.result.map(_.layers).toSet)
    // covers at least one whole planted persistent community
    val cov = sp.result.flatMap(_.vertices).toSet
    assert(gen.communities.take(2).exists(c => c.vertices.forall(cov.contains)))
  }
}
