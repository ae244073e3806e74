package dccsbench

import repro.core.{Dcc, MLGraph, SetOps}
import repro.expts.{Experiments, Run}
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** What a query returned: the program's own experiment record. */
object Answer {

  /** Calls the query's public entry point through `Experiments.runAlgo`, so
    * the entry points' result types never appear in the benchmark.
    */
  def run(g: MLGraph, q: Query): Run = Experiments.runAlgo(q.algo, q.dataset, g, q.d, q.s, q.k)

  def distinctLabels(a: Run): Int = a.result.map(_.layers).distinct.size

  /** Order-sensitive fingerprint of the returned cores and counters. */
  def digest(a: Run): Int = MurmurHash3.orderedHash(
    a.result.map(c => MurmurHash3.orderedHash(Seq(c.layers.hashCode, MurmurHash3.arrayHash(c.vertices)))) ++
      Seq(a.coverSize, a.dccCalls, a.candidates))

  /** Same cores in the same order and the same counters; the time may differ. */
  def same(a: Run, b: Run): Boolean =
    a.coverSize == b.coverSize && a.dccCalls == b.dccCalls && a.candidates == b.candidates &&
      a.result.length == b.result.length &&
      a.result.zip(b.result).forall { case (x, y) =>
        x.layers == y.layers && java.util.Arrays.equals(x.vertices, y.vertices)
      }
}

/** The output check. It runs outside every timed interval.
  *
  * A query's answer is correct when every returned core equals the d-CC of
  * its label on the full graph, every label has `s` distinct layers, at most
  * `k` cores are returned and `coverSize` is the size of their union. Across a
  * workload, BU-DCCS must cover at least a quarter of what GD-DCCS covers for
  * the same (dataset, d, s, k) (Theorem 3). Duplicate labels are not a
  * failure; they show in `distinct_cores_frac`.
  */
final class Checker(graphs: Map[String, MLGraph]) {

  private val layerCores = mutable.HashMap.empty[(String, Int, Int), Array[Int]]
  private val fullCores = mutable.HashMap.empty[(String, Int, Vector[Int]), Array[Int]]

  /** The d-CC of `layers` on the full graph. Every vertex of it has degree at
    * least d on each of those layers, so it lies inside the intersection of
    * their full-graph d-cores; peeling inside that intersection gives the
    * same set as peeling the whole graph, at a fraction of the cost.
    */
  private def dcc(dataset: String, d: Int, layers: Vector[Int]): Array[Int] =
    fullCores.getOrElseUpdate((dataset, d, layers), {
      val g = graphs(dataset)
      val bound = SetOps.intersectAll(layers.map(i =>
        layerCores.getOrElseUpdate((dataset, d, i), Dcc.compute(g, Array(i), d))))
      if (bound.isEmpty) bound else Dcc.compute(g, layers.toArray, d, bound)
    })

  /** Problems with one answer; empty when it is correct. */
  def problems(q: Query, a: Run): Seq[String] = {
    val g = graphs(q.dataset)
    val out = mutable.ArrayBuffer.empty[String]
    if (a.result.length > q.k) out += s"${a.result.length} cores returned for k=${q.k}"
    a.result.foreach { c =>
      val ls = c.layers
      if (ls.length != q.s || ls.distinct.length != q.s ||
          ls.exists(i => i < 0 || i >= g.numLayers))
        out += s"label ${ls.mkString("{", ",", "}")} is not ${q.s} distinct layers"
      else {
        val want = dcc(q.dataset, q.d, ls)
        if (!java.util.Arrays.equals(want, c.vertices))
          out += s"core of ${ls.mkString("{", ",", "}")} has ${c.vertices.length} vertices, its d-CC has ${want.length}"
      }
    }
    val union = new java.util.BitSet(g.numVertices)
    a.result.foreach(_.vertices.foreach(union.set))
    if (union.cardinality != a.coverSize)
      out += s"coverSize ${a.coverSize} but the cores cover ${union.cardinality}"
    out.toSeq
  }

  /** Query ids whose BU answer covers less than a quarter of GD's. */
  def theorem3(answers: Map[Query, Run]): Seq[(Query, String)] = {
    val gd = answers.collect { case (q, a) if q.algo == "GD" => (q.dataset, q.d, q.s, q.k) -> a.coverSize }
    answers.toSeq.collect {
      case (q, a) if q.algo == "BU" && gd.get((q.dataset, q.d, q.s, q.k)).exists(4 * a.coverSize < _) =>
        q -> s"4*cover(BU)=${4 * a.coverSize} < cover(GD)=${gd((q.dataset, q.d, q.s, q.k))}"
    }
  }
}
