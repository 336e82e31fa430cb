package rsjbench

import java.io.File

import scala.util.control.NonFatal

/** Runs one workload and prints its metrics, one per line, then the JSON
  * result line. Exits 1 when any insert or output check failed.
  *
  * {{{
  * rsjbench.Main --workload line5 [--seed 42] [--seconds 10] [--trace 0|1] [--work DIR]
  * }}}
  * `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
  * separate traced run that gives the per-layer metrics.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    val unknown = opts.keySet -- Set("workload", "seed", "seconds", "trace", "work")
    if (unknown.nonEmpty) usage(s"unknown option ${unknown.mkString(", ")}")
    val name = opts.getOrElse("workload", usage("--workload is required"))
    if (!Workloads.Names.contains(name)) usage(s"unknown workload $name")
    val seed = opts.get("seed").map(_.toLong).getOrElse(42L)
    val seconds = opts.get("seconds").map(_.toInt).getOrElse(10)
    val trace = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    val work = new File(opts.getOrElse("work", "target/work"))

    val out = new Outcome(trace)
    try {
      if (Workloads.isStreaming(name)) Streaming.run(seed, seconds, trace, work, out)
      else if (trace) InProcess.traced(name, seed, seconds, out)
      else InProcess.untraced(name, seed, seconds, out)
    } catch {
      case NonFatal(e) =>
        e.printStackTrace()
        out.checks.add(s"$name ran to the end", ok = false, e.toString)
    }
    val json = out.json
    print(out.report())
    println(json)
    Console.flush()
    sys.exit(if (out.failed == 0) 0 else 1)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: --workload ${Workloads.Names.mkString("|")} " +
      "[--seed N] [--seconds S] [--trace 0|1] [--work DIR]")
    sys.exit(2)
  }
}
