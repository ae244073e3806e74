package dccsbench

/** Just enough JSON for the result line and the result files. Objects are
  * sequences of pairs so that keys keep their order.
  */
object Json {

  final case class Obj(fields: (String, Any)*)

  def write(v: Any): String = {
    val sb = new StringBuilder
    def go(x: Any): Unit = x match {
      case null | None => sb ++= "null"
      case Some(y) => go(y)
      case b: Boolean => sb ++= b.toString
      case d: Double => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
      case n: Int => sb ++= n.toString
      case n: Long => sb ++= n.toString
      case s: String => quote(s)
      case o: Obj =>
        sb += '{'
        o.fields.zipWithIndex.foreach { case ((k, y), i) =>
          if (i > 0) sb += ','
          quote(k); sb += ':'; go(y)
        }
        sb += '}'
      case xs: Iterable[_] =>
        sb += '['
        xs.zipWithIndex.foreach { case (y, i) => if (i > 0) sb += ','; go(y) }
        sb += ']'
      case other => quote(other.toString)
    }
    def quote(s: String): Unit = {
      sb += '"'
      s.foreach {
        case '"' => sb ++= "\\\""
        case '\\' => sb ++= "\\\\"
        case '\n' => sb ++= "\\n"
        case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
        case c => sb += c
      }
      sb += '"'
    }
    go(v)
    sb.result()
  }
}

object Stats {

  /** The `p`-quantile of `xs` by linear interpolation between order
    * statistics (the default of numpy and of R's type 7).
    */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val h = (s.length - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}
