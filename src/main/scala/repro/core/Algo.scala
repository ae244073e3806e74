package repro.core

/** The three DCCS algorithms as one type, so drivers pick one by value or by
  * name instead of matching on strings.
  */
sealed trait Algo {
  def run(g: MLGraph, d: Int, s: Int, k: Int): Output
}

/** An algorithm with the BU/TD preprocessing steps that [[Config]] toggles. */
sealed trait SearchAlgo extends Algo {
  def run(g: MLGraph, d: Int, s: Int, k: Int, cfg: Config): Output
  final def run(g: MLGraph, d: Int, s: Int, k: Int): Output = run(g, d, s, k, Config())
}

object Algo {
  case object GD extends Algo {
    def run(g: MLGraph, d: Int, s: Int, k: Int): Output = GreedyDCCS.run(g, d, s, k)
  }
  case object BU extends SearchAlgo {
    def run(g: MLGraph, d: Int, s: Int, k: Int, cfg: Config): Output =
      BottomUpDCCS.run(g, d, s, k, cfg)
  }
  case object TD extends SearchAlgo {
    def run(g: MLGraph, d: Int, s: Int, k: Int, cfg: Config): Output =
      TopDownDCCS.run(g, d, s, k, cfg)
  }

  val all: Seq[Algo] = Seq(GD, BU, TD)

  def byName(name: String): Algo =
    all.find(_.toString == name).getOrElse(throw new IllegalArgumentException(
      s"unknown algorithm $name (expected one of ${all.mkString(", ")})"))

  /** The parameter check every algorithm runs first: `1 ≤ s ≤ l`, `k ≥ 1`. */
  def requireParams(l: Int, s: Int, k: Int): Unit =
    require(s >= 1 && s <= l && k >= 1,
      s"DCCS needs 1 <= s <= l and k >= 1, got s=$s, l=$l, k=$k")
}
