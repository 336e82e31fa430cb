package repro

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.core.{JoinQuery, RelSchema}
import repro.data.Workload

/** Spark-side views of the pure-Scala generators in [[repro.data.StreamGen]]
  * — the datasets this paper needs (graph edges, TPC-DS-lite, LDBC-lite),
  * built from the *same* seeded tuples the engines consume, so
  * `Oracle.assertEquivalent` compares like for like.
  */
object SynthDataX {

  /** All-Long DataFrame over a relation schema. */
  def tableDf(spark: SparkSession, schema: RelSchema,
              rows: Seq[Array[Long]]): DataFrame = {
    val st = StructType(schema.attrs.map(a => StructField(a, LongType, nullable = false)))
    val jrows = rows.map(r => Row.fromSeq(r.toSeq)).asJava
    spark.createDataFrame(jrows, st)
  }

  /** Edge table G(src, dst). */
  def edgesDf(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame =
    tableDf(spark, RelSchema("g", Vector("src", "dst")), edges.map(e => Array(e._1, e._2)))

  /** One DataFrame per relation of a workload (preload + stream combined) —
    * the inputs handed to DuckDB by the oracle tests.
    */
  def workloadTables(spark: SparkSession, w: Workload): Seq[(String, DataFrame)] =
    workloadTables(spark, w.query, w.preload ++ w.stream)

  def workloadTables(spark: SparkSession, query: JoinQuery,
                     tuples: Seq[(String, Array[Long])]): Seq[(String, DataFrame)] = {
    val byRel = tuples.groupBy(_._1)
    query.relations.map { rs =>
      rs.name -> tableDf(spark, rs, byRel.getOrElse(rs.name, Nil).map(_._2))
    }
  }

  /** SQL SELECT list + WHERE clause for a natural join of `query`, usable on
    * both Spark and DuckDB over the per-alias tables: every attribute is
    * emitted once under its natural-join name.
    */
  def naturalJoinSql(query: JoinQuery): String = {
    val firstOwner = scala.collection.mutable.LinkedHashMap.empty[String, String]
    for (r <- query.relations; a <- r.attrs if !firstOwner.contains(a))
      firstOwner(a) = r.name
    val select = firstOwner.map { case (a, rel) => s"$rel.$a AS $a" }.mkString(", ")
    val preds = for {
      r <- query.relations; a <- r.attrs
      owner = firstOwner(a) if owner != r.name
    } yield s"$owner.$a = ${r.name}.$a"
    val from = query.relations.map(_.name).mkString(", ")
    val where = if (preds.isEmpty) "" else preds.mkString(" WHERE ", " AND ", "")
    s"SELECT $select FROM $from$where"
  }
}
