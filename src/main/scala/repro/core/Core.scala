package repro.core

/** A discovered d-CC: its layer subset `L` (original layer ids, sorted) and
  * its vertex set (sorted).
  */
final case class Core(layers: Vector[Int], vertices: Array[Int]) {
  def size: Int = vertices.length
  override def toString: String =
    s"Core(L=${layers.mkString("{", ",", "}")}, |C|=${vertices.length})"
}

/** Machine-independent work counters shared by all three algorithms. */
final case class Stats(dccCalls: Int,
                       candidatesGenerated: Int,
                       totalMillis: Long)

/** The answer of a DCCS run: the selected d-CCs `R` and `|Cov(R)|`. */
final case class Output(result: Vector[Core], coverSize: Int, stats: Stats) {
  def coverSet: Array[Int] = {
    val bs = new java.util.BitSet()
    result.foreach(_.vertices.foreach(bs.set))
    Iterator.iterate(bs.nextSetBit(0))(i => bs.nextSetBit(i + 1))
      .takeWhile(_ >= 0).toArray
  }
}
