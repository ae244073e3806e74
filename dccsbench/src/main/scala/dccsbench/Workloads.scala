package dccsbench

import repro.graphgen.MLSynth

/** One DCCS query as an analyst would issue it. */
final case class Query(id: Int, algo: String, dataset: String, d: Int, s: Int, k: Int) {
  def label: String = s"$algo/$dataset/d=$d/s=$s/k=$k"
}

/** A fixed grid of queries over a few `MLSynth` presets.
  *
  * @param instances graph instances generated per preset. A run spreads its
  *                  queries over all of them, so its figures average the
  *                  instances' differences instead of following one random
  *                  graph. Each instance is one set-up repetition, and a
  *                  timed round runs one cycle per instance.
  * @param tailPct the latency percentile reported as `query_tail_ms`. It is
  *                fixed per workload, not chosen per run, so that a faster or
  *                slower build is compared at the same percentile; it is the
  *                highest percentile that leaves at least ten samples beyond
  *                it in a 30-second run of the program this benchmark was
  *                written against. Each run records how many samples lie
  *                beyond it.
  */
final case class Workload(name: String, why: String, datasets: Seq[String],
                          queries: Vector[Query], instances: Int, tailPct: Double) {

  /** Instance `inst` of the preset, re-seeded by the workload seed. Seed 0,
    * instance 0 is the preset exactly as `MLSynth.presets` defines it.
    */
  def spec(dataset: String, seed: Long, inst: Int): MLSynth.Spec = {
    val base = MLSynth.presets.getOrElse(dataset, sys.error(s"unknown preset '$dataset'"))
    base.copy(seed = base.seed + 1000L * (instances * seed + inst))
  }
}

object Workloads {

  def layers(dataset: String): Int = MLSynth.presets(dataset).l

  private def grid(qs: Seq[(String, String, Int, Int, Int)]): Vector[Query] =
    qs.zipWithIndex.map { case ((a, ds, d, s, k), i) => Query(i, a, ds, d, s, k) }.toVector

  val smallS: Workload = Workload(
    "small-s",
    "BU-DCCS at d=4 and s<=4 on stack and english, with GD-DCCS as the quality " +
      "reference: the paper's headline use, where vertex deletion and hundreds of " +
      "small peels share the time",
    Seq("stack", "english"),
    grid(
      (for (ds <- Seq("stack", "english"); s <- Seq(2, 3, 4); k <- Seq(5, 10, 25))
        yield ("BU", ds, 4, s, k)) ++
      Seq(("GD", "english", 4, 2, 10), ("GD", "english", 4, 3, 10))),
    instances = 4,
    tailPct = 87)

  val largeS: Workload = Workload(
    "large-s",
    "TD-DCCS at d=4 and s close to l on stack, english and wiki: vertex deletion " +
      "dominates, the index is cheap and the search sees only a few hundred survivors",
    Seq("stack", "english", "wiki"),
    grid(
      for (ds <- Seq("stack", "english", "wiki"); off <- Seq(4, 2, 1); k <- Seq(10, 25))
        yield ("TD", ds, 4, layers(ds) - off, k)),
    // Five instances, not three: the covers and labels TD returns at s near l
    // depend much more on the random graph than small-s answers do.
    instances = 5,
    tailPct = 88)

  val all: Seq[Workload] = Seq(smallS, largeS)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
