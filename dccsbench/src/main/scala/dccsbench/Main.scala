package dccsbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import repro.core.MLGraph
import repro.expts.Run
import repro.graphgen.MLSynth
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Closed-loop DCCS query benchmark: one client thread sends the next query
  * of a workload only after the previous one has returned.
  *
  * {{{
  * dccsbench.Main --workload small-s --seed 0 --seconds 30 --trace 0 --out DIR --stamp HASH
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
  * replays each layer's public functions around every query and prints the
  * per-layer metrics. The last line of standard output is one JSON object;
  * full results go to `DIR`. `HASH` names the build's sources: runs with the
  * same workload, seed and stamp must repeat their exact counters.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean, out: Path,
                        stamp: String)

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList) match {
      case Right(o) => o
      case Left(msg) =>
        System.err.println(s"dccsbench: $msg")
        System.err.println("usage: --workload NAME --seed N --seconds S --trace 0|1 --out DIR --stamp HASH")
        sys.exit(2)
    }
    new Bench(opts).run()
  }

  private def parse(args: List[String]): Either[String, Opts] = {
    val m = args.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.get(k).toRight(s"missing --$k")
    for {
      wn <- need("workload")
      w <- Workloads.byName(wn).toRight(s"unknown workload '$wn' (${Workloads.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed '$s'"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(x => x >= 1 && x <= 600).toRight(s"bad --seconds '$s'"))
      tr <- need("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case s => Left(s"bad --trace '$s'")
      }
      out <- need("out")
      stamp <- need("stamp").filterOrElse(_.matches("[0-9a-f]{1,64}"), "bad --stamp")
    } yield Opts(w, seed, secs, tr, Paths.get(out), stamp)
  }
}

/** One query on one graph instance. */
final case class Task(q: Query, inst: Int) {
  def key: (Int, Int) = (q.id, inst)
  def label: String = s"${q.label}#$inst"
}

final class Bench(o: Main.Opts) {
  import Main._

  private val w = o.workload
  private val tracer = new Tracer
  private val mb = 1024.0 * 1024.0
  private val allTasks = for (q <- w.queries; j <- 0 until w.instances) yield Task(q, j)

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Cycle `c` (warm-up and timed cycles are numbered on): every query once,
    * in a seeded order, each on the instance the cycle rotates it to.
    */
  private def cycle(c: Int): Vector[Task] =
    new Random(o.seed * 1000003L + c).shuffle(w.queries).map(q => Task(q, (c + q.id) % w.instances))

  def run(): Unit = {
    val runtime = java.lang.management.ManagementFactory.getRuntimeMXBean
    val problems = mutable.ArrayBuffer.empty[String]

    // ---- Set-up: generate every preset and build its graph, once per instance.
    val graphs = new Array[Map[String, MLGraph]](w.instances)
    val setupS = (0 until w.instances).map { j =>
      val t0 = System.nanoTime()
      graphs(j) = w.datasets.map { ds =>
        val spec = w.spec(ds, o.seed, j)
        val gen =
          if (o.trace) tracer.span("graphgen", j, -1)(_ => MLSynth.generate(spec))._1
          else MLSynth.generate(spec)
        ds -> gen.graph
      }.toMap
      secondsSince(t0)
    }
    val rebuildMs =
      if (!o.trace) Seq.empty
      else (0 until w.instances).map { j =>
        w.datasets.map { ds =>
          val g = graphs(j)(ds)
          val (h, sp) = tracer.span("mlgraph.from_edges", j, -1)(_ =>
            MLGraph.fromEdges(g.numLayers, g.numVertices, g.edgeTriples))
          if (h.totalEdgeCount != g.totalEdgeCount)
            problems += s"$ds#$j: rebuilt graph has ${h.totalEdgeCount} edges, not ${g.totalEdgeCount}"
          sp.ms
        }.sum
      }
    System.gc(); System.gc()
    val heapMb = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / mb

    // ---- One execution, untraced or traced. The first answer of each task is
    // its reference; every later one must be identical to it.
    val reference = mutable.HashMap.empty[(Int, Int), Run]
    val layerRecs = mutable.ArrayBuffer.empty[LayerRec]
    var nExec = 0
    var compareNs = 0L

    /** Runs `t`; returns its latency in ms, or None if it threw or its answer
      * differs from the reference.
      */
    def execute(t: Task, traced: Boolean): Option[Double] = {
      val g = graphs(t.inst)(t.q.dataset)
      nExec += 1
      try {
        val (ans, ms) =
          if (traced) {
            val rng = new Random(o.seed * 7919L + t.q.id * 31L + t.inst)
            val (a, rec) = Layers.traced(tracer, nExec, g, t.q, t.inst, rng, problems)
            layerRecs += rec
            (a, rec.searchMs)
          } else {
            val t0 = System.nanoTime()
            val a = Answer.run(g, t.q)
            (a, (System.nanoTime() - t0) / 1e6)
          }
        val c0 = System.nanoTime()
        val same = reference.get(t.key) match {
          case None => reference(t.key) = ans; true
          case Some(ref) => Answer.same(ref, ans)
        }
        compareNs += System.nanoTime() - c0
        if (same) Some(ms)
        else {
          problems += s"${t.label}: answer differs from its first execution"
          None
        }
      } catch {
        case e: Exception =>
          problems += s"${t.label}: threw $e"
          None
      }
    }

    // ---- Warm-up: one cycle, which is as long as the JIT takes to settle
    // here (the README gives the per-cycle medians behind this). Its median is
    // recorded with the timed cycles' medians, so every run shows whether
    // latency was still falling.
    val warmT0 = System.nanoTime()
    val warmLat = cycle(0).flatMap(t => execute(t, traced = false))
    val warmS = secondsSince(warmT0)
    val warmMedian = if (warmLat.isEmpty) Double.NaN else Stats.median(warmLat)
    var c = 1

    // ---- Timed loop: whole rounds of one cycle per instance, so that every
    // query runs equally often on every instance; as many rounds as come
    // nearest to --seconds, and at least one. The time spent comparing
    // answers with their references is taken off the clock. A traced run
    // traces every other cycle and runs the ones between untraced; the
    // untraced latencies are the reference for the tracing overhead.
    val timed = mutable.ArrayBuffer.empty[(Task, Option[Double])]
    val timedMedians = mutable.ArrayBuffer.empty[Double]
    val untracedMs = mutable.ArrayBuffer.empty[Double]
    val firstTimed = c
    compareNs = 0L
    val loopT0 = System.nanoTime()
    var rounds = 0
    while (rounds == 0 || secondsSince(loopT0) * (1 + 0.5 / rounds) < o.seconds) {
      (0 until w.instances).foreach { _ =>
        val traced = o.trace && (c - firstTimed) % 2 == 0
        val lat = cycle(c).flatMap { t =>
          val ms = execute(t, traced)
          timed += t -> ms
          ms
        }
        if (o.trace && !traced) untracedMs ++= lat
        timedMedians += (if (lat.isEmpty) Double.NaN else Stats.median(lat))
        c += 1
      }
      rounds += 1
    }
    val wallS = secondsSince(loopT0) - compareNs / 1e9
    val cycles = c - firstTimed
    val gcTotal = Jvm.gc()

    // ---- Output check, outside every timed interval. A round runs every
    // task, so every task that returned has a reference answer.
    val checkT0 = System.nanoTime()
    val bad = mutable.LinkedHashMap.empty[(Int, Int), String]
    (0 until w.instances).foreach { j =>
      val checker = new Checker(graphs(j))
      val answers = allTasks.filter(_.inst == j).flatMap(t => reference.get(t.key).map(t -> _))
      allTasks.filter(_.inst == j).foreach { t =>
        reference.get(t.key) match {
          case None => bad(t.key) = s"${t.label}: never returned"
          case Some(a) => checker.problems(t.q, a).foreach(p => bad.getOrElseUpdate(t.key, s"${t.label}: $p"))
        }
      }
      checker.theorem3(answers.map { case (t, a) => t.q -> a }.toMap)
        .foreach { case (q, p) => bad.getOrElseUpdate((q.id, j), s"${q.label}#$j: $p") }
    }
    layerRecs.groupBy(r => (r.query.id, r.inst)).foreach { case (key, rs) =>
      if (rs.map(r => (r.preRounds, r.preSurvivors, r.indexLevels)).distinct.length > 1)
        bad.getOrElseUpdate(key, s"${rs.head.query.label}#${key._2}: preprocess/index counters differ between executions")
    }
    Counters.check(o, allTasks, reference.toMap, layerRecs.toSeq)
      .foreach { case (key, p) => bad.getOrElseUpdate(key, p) }
    problems ++= bad.values
    val checkS = secondsSince(checkT0)

    val attempted = timed.length
    val failed = timed.count { case (t, ms) => ms.isEmpty || bad.contains(t.key) }
    val latencies = timed.flatMap(_._2).toSeq

    // ---- Metrics.
    val refs = allTasks.flatMap(t => reference.get(t.key))
    val nCores = refs.map(_.result.length).sum
    val p50 = if (latencies.isEmpty) Double.NaN else Stats.median(latencies)
    val tail = if (latencies.isEmpty) Double.NaN else Stats.quantile(latencies, w.tailPct / 100)
    val beyondTail = latencies.count(_ > tail)

    // (name, value, unit, better)
    val endToEnd: Seq[(String, Double, String, String)] = Seq(
      ("query_p50_ms", p50, "ms", "lower"),
      ("query_tail_ms", tail, "ms", "lower"),
      ("queries_per_s", latencies.length / wallS, "1/s", "higher"),
      ("setup_s", Stats.median(setupS), "s", "lower"),
      ("heap_mb", heapMb, "MB", "lower"),
      ("cover_sum", refs.map(_.coverSize.toDouble).sum, "count", "higher"),
      ("distinct_cores_frac", if (nCores == 0) 0.0 else refs.map(Answer.distinctLabels).sum.toDouble / nCores,
        "fraction", "higher"),
      ("ok_frac", 1.0 - failed.toDouble / attempted, "fraction", "higher"),
    )
    val perLayer: Seq[(String, Double, String)] =
      if (!o.trace || layerRecs.isEmpty) Seq.empty
      else Seq(
        ("graphgen.generate_ms",
          Stats.median(tracer.spans.filter(_.name == "graphgen").groupBy(_.exec).values.map(_.map(_.ms).sum).toSeq), "ms"),
        ("mlgraph.from_edges_ms", Stats.median(rebuildMs), "ms"),
        ("mlgraph.edges", graphs.map(_.values.map(_.totalEdgeCount.toDouble).sum).sum / w.instances, "count"),
      ) ++ Layers.metrics(layerRecs.toSeq, Workloads.layers, untracedMs.toSeq)
    val selfMs = if (o.trace) tracer.selfMs else Map.empty[String, Double]

    // ---- Report.
    val env = Json.Obj(
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_args" -> runtime.getInputArguments.asScala.toSeq,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / mb,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "client_threads" -> 1,
      "seed" -> o.seed,
      "preset_seeds" -> Json.Obj(w.datasets.map(ds =>
        ds -> (0 until w.instances).map(j => w.spec(ds, o.seed, j).seed)): _*))
    val taskRows = allTasks.map { t =>
      val a = reference.get(t.key)
      val rec = layerRecs.find(r => (r.query.id, r.inst) == t.key)
      Json.Obj(
        "id" -> t.q.id, "instance" -> t.inst, "query" -> t.q.label,
        "latency_ms" -> timed.collect { case (u, Some(ms)) if u.key == t.key => ms },
        "cover" -> a.map(_.coverSize), "cores" -> a.map(_.result.length),
        "distinct_labels" -> a.map(Answer.distinctLabels),
        "dcc_calls" -> a.map(_.dccCalls), "candidates" -> a.map(_.candidates),
        "digest" -> a.map(Answer.digest),
        "preprocess_rounds" -> rec.map(_.preRounds),
        "preprocess_survivors" -> rec.map(_.preSurvivors),
        "coreindex_levels" -> rec.flatMap(_.indexLevels),
        "problem" -> bad.get(t.key))
    }
    val correct = failed == 0 && problems.isEmpty
    val metrics =
      if (o.trace) perLayer.map { case (n, v, u) => n -> Json.Obj("value" -> v, "unit" -> u) }
      else endToEnd.map { case (n, v, u, _) => n -> Json.Obj("value" -> v, "unit" -> u) }
    val result = Json.Obj(
      "workload" -> w.name, "why" -> w.why, "trace" -> o.trace, "seconds" -> o.seconds,
      "env" -> env, "stamp" -> o.stamp,
      "setup_s" -> setupS, "heap_mb" -> heapMb,
      "warmup" -> Json.Obj("cycles" -> 1, "seconds" -> warmS, "cycle_median_ms" -> warmMedian),
      "timed" -> Json.Obj("cycles" -> cycles, "seconds" -> wallS, "samples" -> latencies.length,
        "cycle_medians_ms" -> timedMedians.toSeq,
        "tail_pct" -> w.tailPct, "samples_beyond_tail" -> beyondTail,
        "gc_count_total" -> gcTotal._1, "gc_ms_total" -> gcTotal._2),
      "check_s" -> checkS,
      "end_to_end" -> endToEnd.map { case (n, v, u, b) => Json.Obj("name" -> n, "value" -> v, "unit" -> u, "better" -> b) },
      "per_layer" -> perLayer.map { case (n, v, u) => Json.Obj("name" -> n, "value" -> v, "unit" -> u) },
      "layer_self_ms" -> Json.Obj(selfMs.toSeq.sortBy(-_._2): _*),
      "tasks" -> taskRows,
      "problems" -> problems.distinct,
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed)

    Files.createDirectories(o.out)
    val tag = s"${w.name}_seed${o.seed}_trace${if (o.trace) 1 else 0}"
    Files.write(o.out.resolve(s"BENCH_$tag.json"), Json.write(result).getBytes(UTF_8))
    if (o.trace) {
      val spans = tracer.spans.sortBy(_.startNs).map { s =>
        Json.Obj("id" -> s.id, "name" -> s.name, "exec" -> s.exec, "parent" -> s.parent,
          "start_ns" -> (s.startNs - loopT0), "end_ns" -> (s.endNs - loopT0), "alloc_bytes" -> s.allocBytes)
      }
      Files.write(o.out.resolve(s"SPANS_$tag.json"), Json.write(spans).getBytes(UTF_8))
    }

    println(s"workload ${w.name}  seed ${o.seed}  trace ${if (o.trace) 1 else 0}  " +
      s"jvm ${System.getProperty("java.runtime.version")}  heap ${Runtime.getRuntime.maxMemory / mb} MB  " +
      s"nproc ${Runtime.getRuntime.availableProcessors}")
    def ms(xs: Iterable[Double]) = xs.map(x => f"$x%.0f").mkString("[", " ", "] ms")
    println(f"set-up ${setupS.sum}%.1f s; warm-up 1 cycle in $warmS%.1f s (median $warmMedian%.0f ms); " +
      s"timed cycle medians ${ms(timedMedians)}")
    println(f"timed $cycles cycles, ${latencies.length} queries in $wallS%.1f s; check $checkS%.1f s; " +
      f"tail = p${w.tailPct}%.0f with $beyondTail samples beyond it")
    if (o.trace) {
      perLayer.foreach { case (n, v, u) => println(f"  $n%-24s $v%14.4f $u") }
      println("layer self time (ms, whole run):")
      selfMs.toSeq.sortBy(-_._2).foreach { case (n, v) => println(f"  $n%-24s $v%14.1f") }
    } else endToEnd.foreach { case (n, v, u, b) => println(f"  $n%-24s $v%14.4f $u%-9s ($b is better)") }
    problems.distinct.take(20).foreach(p => println(s"PROBLEM $p"))
    println(Json.write(Json.Obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> Json.Obj(metrics: _*))))
  }
}

/** Exact per-task counters, kept between runs of one checkout so that a run
  * with the same workload, seed and source stamp must repeat them exactly. A
  * change to the sources starts a new record.
  */
object Counters {

  /** Compares this run's counters with those an earlier run of the same
    * workload, seed and stamp left behind, then records this run's. Returns
    * the tasks whose counters changed.
    */
  def check(o: Main.Opts, tasks: Seq[Task], answers: Map[(Int, Int), Run],
            recs: Seq[LayerRec]): Seq[((Int, Int), String)] = {
    val now = mutable.LinkedHashMap.empty[String, ((Int, Int), String)]
    tasks.foreach { t =>
      answers.get(t.key).foreach { a =>
        now(s"A\t${t.q.id}\t${t.inst}\t${t.q.label}") = t.key ->
          Seq(a.coverSize, a.result.length, Answer.distinctLabels(a), a.dccCalls, a.candidates,
            Answer.digest(a)).mkString("\t")
      }
      recs.find(r => (r.query.id, r.inst) == t.key).foreach { r =>
        now(s"T\t${t.q.id}\t${t.inst}\t${t.q.label}") = t.key ->
          Seq(r.preRounds, r.preSurvivors, r.indexLevels.getOrElse(-1)).mkString("\t")
      }
    }
    val dir = o.out.resolve("counters")
    val file = dir.resolve(s"${o.workload.name}_seed${o.seed}_${o.stamp}.tsv")
    val before = mutable.LinkedHashMap.empty[String, String]
    if (Files.exists(file)) Files.readAllLines(file, UTF_8).asScala.foreach { line =>
      val f = line.split("\t", 5)
      if (f.length == 5) before(f.take(4).mkString("\t")) = f(4)
    }
    val changed = now.toSeq.collect {
      case (k, (key, v)) if before.get(k).exists(_ != v) =>
        key -> s"${k.split("\t")(3)}#${key._2}: counters ${before(k)} in an earlier run, $v now"
    }
    Files.createDirectories(dir)
    val merged = before ++ now.view.mapValues(_._2)
    Files.write(file, merged.map { case (k, v) => s"$k\t$v" }.mkString("", "\n", "\n").getBytes(UTF_8))
    changed
  }
}
