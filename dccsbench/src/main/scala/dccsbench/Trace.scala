package dccsbench

import repro.core.{Core, CoreIndex, Dcc, MLGraph, Preprocess, SetOps, TopKDiversified}
import repro.expts.Run
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** JVM counters read around a span. */
object Jvm {
  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** (collections, collection milliseconds) so far, over every collector. */
  def gc(): (Long, Long) =
    gcs.foldLeft((0L, 0L))((acc, b) => (acc._1 + b.getCollectionCount, acc._2 + b.getCollectionTime))
}

/** One timed call into a layer. `exec` numbers the query execution (or the
  * set-up repetition) the span belongs to; `parent` is -1 for a root span.
  */
final case class Span(id: Int, name: String, exec: Int, parent: Int,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans kept in memory and written out when the run ends. */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var nextId = 0

  def span[A](name: String, exec: Int, parent: Int)(body: Int => A): (A, Span) = {
    val id = nextId
    nextId += 1
    val a0 = Jvm.allocated()
    val t0 = System.nanoTime()
    val r = body(id)
    val t1 = System.nanoTime()
    val sp = Span(id, name, exec, parent, t0, t1, Jvm.allocated() - a0)
    spans += sp
    (r, sp)
  }

  /** Milliseconds of each span not covered by its children, summed by name. */
  def selfMs: Map[String, Double] = {
    val childMs = mutable.HashMap.empty[Int, Double].withDefaultValue(0.0)
    spans.foreach(sp => if (sp.parent >= 0) childMs(sp.parent) += sp.ms)
    spans.groupBy(_.name).view.mapValues(_.iterator.map(sp => sp.ms - childMs(sp.id)).sum).toMap
  }
}

/** Per-layer measurements of one traced query execution. Times are in
  * milliseconds, allocations in bytes.
  */
final case class LayerRec(
    query: Query, inst: Int,
    queryMs: Double,
    searchMs: Double, searchAlloc: Long, gcCount: Long, gcMs: Long,
    dccCalls: Int, candidates: Int,
    preMs: Double, preAlloc: Long, preRounds: Int, preSurvivors: Int,
    indexMs: Option[Double], indexLevels: Option[Int],
    candidateMs: Option[Double],
    peelNs: Long, peels: Int, peelWithin: Long, peelAlloc: Long,
    topkNs: Long, topkUpdates: Int, topkAccepted: Int)

/** The traced run: times the calls the benchmark makes into each layer's
  * public functions around one query. Nothing is traced inside the program.
  * The entry point is called first, as in an untraced execution; then the
  * preprocess, index and candidate phases are replayed from outside with the
  * query's parameters, and the search's own time is derived as the
  * entry-point span minus those replays.
  */
object Layers {

  /** Random labels peeled per query besides the returned ones, so that the
    * peel and top-k numbers also see labels the search did not keep.
    */
  val SampledLabels = 16

  def traced(tr: Tracer, exec: Int, g: MLGraph, q: Query, inst: Int, rng: scala.util.Random,
             problems: mutable.ArrayBuffer[String]): (Run, LayerRec) = {
    val l = g.numLayers
    val ((ans, rec), rootSp) = tr.span("query", exec, -1) { root =>
      val gc0 = Jvm.gc()
      val (ans, searchSp) = tr.span("search", exec, root)(_ => Answer.run(g, q))
      val gc1 = Jvm.gc()
      val (pre, preSp) = tr.span("preprocess", exec, root)(_ => Preprocess.vertexDeletion(g, q.d, q.s))
      val index =
        if (q.algo != "TD") None
        else {
          // TD-DCCS line 2: layers ascending by the size of their d-core.
          val order = (0 until l).sortBy(i => pre.layerCores(i).length).toArray
          Some(tr.span("coreindex", exec, root)(_ => CoreIndex.build(g, order, q.d, pre.active)))
        }
      // GD-DCCS lines 4-7: one peel per size-s label inside its Lemma-1 bound.
      val cands =
        if (q.algo != "GD") None
        else Some(tr.span("dcc.candidates", exec, root) { _ =>
          (0 until l).combinations(q.s).map { combo =>
            val bound = SetOps.intersectAll(combo.map(pre.layerCores))
            Core(combo.toVector,
              if (bound.isEmpty) Array.empty[Int] else Dcc.compute(g, combo.toArray, q.d, bound))
          }.toVector
        })

      // Peels of the returned labels and a few seeded random ones, each inside
      // its Lemma-1 bound; a returned label must peel to the returned core.
      val sampled = Vector.fill(SampledLabels)(rng.shuffle((0 until l).toVector).take(q.s).sorted)
      val labels = ans.result.map(_.layers) ++ sampled
      var within = 0L
      val (peeled, peelSp) = tr.span("dcc.replay", exec, root) { _ =>
        labels.map { ls =>
          val bound = SetOps.intersectAll(ls.map(pre.layerCores))
          within += bound.length
          Core(ls, if (bound.isEmpty) Array.empty[Int] else Dcc.compute(g, ls.toArray, q.d, bound))
        }
      }
      ans.result.zip(peeled).foreach { case (c, p) =>
        if (!java.util.Arrays.equals(c.vertices, p.vertices))
          problems += s"${q.label}: core of ${c.layers.mkString("{", ",", "}")} differs from its bounded peel"
      }

      // A fresh top-k set fed every candidate core this query exposes.
      val stream = cands.map(_._1).getOrElse(peeled.drop(ans.result.length) ++ peeled.take(ans.result.length))
      val (accepted, topkSp) = tr.span("topk", exec, root) { _ =>
        val topk = new TopKDiversified(q.k)
        stream.count(topk.tryUpdate)
      }

      (ans, LayerRec(q, inst, 0.0,
        searchSp.ms, searchSp.allocBytes, gc1._1 - gc0._1, gc1._2 - gc0._2,
        ans.dccCalls, ans.candidates,
        preSp.ms, preSp.allocBytes, pre.rounds, pre.active.length,
        index.map(_._2.ms), index.map(_._1.levels.length),
        cands.map(_._2.ms),
        peelSp.endNs - peelSp.startNs, labels.length, within, peelSp.allocBytes,
        topkSp.endNs - topkSp.startNs, stream.length, accepted))
    }
    (ans, rec.copy(queryMs = rootSp.ms))
  }

  private def median(xs: Seq[Double]): Double = Stats.median(xs)
  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
  private def orZero(xs: Seq[Double])(f: Seq[Double] => Double): Double = if (xs.isEmpty) 0.0 else f(xs)

  private def choose(n: Int, r: Int): Double =
    (0 until r).foldLeft(1.0)((acc, i) => acc * (n - i) / (i + 1))

  /** Per-layer metrics over the traced executions, with their units. Layers
    * a workload never runs (the index without TD, candidate replay without GD)
    * report 0. `untracedMs` holds the latencies of the untraced cycles that
    * ran between the traced ones, over the same queries; the tracing
    * overhead is the entry-point span's median less theirs.
    */
  def metrics(recs: Seq[LayerRec], layersOf: String => Int,
              untracedMs: Seq[Double]): Seq[(String, Double, String)] = {
    val mb = 1024.0 * 1024.0
    val td = recs.filter(_.indexMs.isDefined)
    val gd = recs.filter(_.candidateMs.isDefined)
    val peels = recs.map(_.peels).sum.max(1)
    val updates = recs.map(_.topkUpdates).sum.max(1)
    Seq(
      ("preprocess.ms", median(recs.map(_.preMs)), "ms"),
      ("preprocess.rounds", mean(recs.map(_.preRounds.toDouble)), "count"),
      ("preprocess.survivors", mean(recs.map(_.preSurvivors.toDouble)), "count"),
      ("preprocess.alloc_mb", mean(recs.map(_.preAlloc / mb)), "MB"),
      ("preprocess.share", median(recs.map(r => r.preMs / r.searchMs)), "fraction"),
      ("dcc.us_per_call", recs.map(_.peelNs).sum / 1e3 / peels, "us"),
      ("dcc.within_mean", recs.map(_.peelWithin).sum.toDouble / peels, "count"),
      ("dcc.alloc_kb_per_call", recs.map(_.peelAlloc).sum / 1024.0 / peels, "KB"),
      ("dcc.candidate_ms", orZero(gd.flatMap(_.candidateMs))(median), "ms"),
      ("coreindex.build_ms", orZero(td.flatMap(_.indexMs))(median), "ms"),
      ("coreindex.levels", orZero(td.flatMap(_.indexLevels).map(_.toDouble))(mean), "count"),
      ("search.self_ms", median(recs.map(r => r.searchMs - r.preMs - r.indexMs.getOrElse(0.0))), "ms"),
      ("search.run_ms", median(recs.map(_.searchMs)), "ms"),
      ("search.dcc_calls", mean(recs.map(_.dccCalls.toDouble)), "count"),
      ("search.candidates", mean(recs.map(_.candidates.toDouble)), "count"),
      ("search.prune_ratio",
        mean(recs.map(r => 1.0 - r.candidates / choose(layersOf(r.query.dataset), r.query.s))), "fraction"),
      ("search.alloc_mb", mean(recs.map(_.searchAlloc / mb)), "MB"),
      ("gd.select_ms", orZero(gd.map(r => r.searchMs - r.preMs - r.candidateMs.get))(median), "ms"),
      ("topk.update_us", recs.map(_.topkNs).sum / 1e3 / updates, "us"),
      ("topk.accept_ratio", recs.map(_.topkAccepted).sum.toDouble / updates, "fraction"),
      ("jvm.gc_ms", mean(recs.map(_.gcMs.toDouble)), "ms"),
      ("jvm.gc_count", mean(recs.map(_.gcCount.toDouble)), "count"),
      ("trace.overhead_ms", orZero(untracedMs)(u => median(recs.map(_.searchMs)) - median(u)), "ms"),
      ("trace.replay_ms", median(recs.map(r => r.queryMs - r.searchMs)), "ms"),
    )
  }
}
