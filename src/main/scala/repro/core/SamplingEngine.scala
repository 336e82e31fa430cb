package repro.core

import Proj.JoinRow

/** Common surface of every reservoir-over-join engine in this repo
  * (RSJoin, RSJoin+grouping, SJoin, the FK-combined variants, the GHD
  * engine), so the benchmark harnesses and cross-engine tests are generic.
  */
trait SamplingEngine extends Serializable {

  /** Process one streamed tuple: maintain the index and the reservoir. */
  def insert(rel: String, values: Array[Long]): Unit

  /** Current uniform sample (≤ k rows) of the join results so far. */
  def sample: Seq[JoinRow]

  /** Executions of the update-propagation loop so far, counted once per
    * rooted tree that holds the updated state (Fig. 9 metric).
    */
  def propagations: Long

  /** Executions of the update-propagation loop on the shared per-edge index
    * states: the updates actually performed.
    */
  def edgePropagations: Long

  /** Structure-proportional memory estimate in bytes (Fig. 11 metric). */
  def approxBytes: Long
}
