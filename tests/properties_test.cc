// Unit tests for property derivation on the inference lattice
// (analysis/infer) as the optimizer uses it: unique keys, constant pinning,
// column origins and join-cardinality analysis (InferenceEngine::AnalyzeJoin)
// on hand-built plans, including the capability gates that model the
// paper's weaker optimizers, UNION ALL keys and origins, and the
// identity-keyed memo over a whole VDM view.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/infer/inference.h"
#include "engine/database.h"
#include "expr/expr.h"
#include "plan/plan_builder.h"
#include "vdm/jeib.h"
#include "workload/s4.h"

namespace vdm {
namespace {

// --- hand-built plans: keys, pins, origins and their capability gates ------

TableSchema Orders() {
  TableSchema schema("orders");
  schema.AddColumn("o_orderkey", DataType::Int64(), false)
      .AddColumn("o_custkey", DataType::Int64(), false)
      .AddColumn("o_total", DataType::Decimal(2));
  schema.SetPrimaryKey({"o_orderkey"});
  return schema;
}

TableSchema Customer() {
  TableSchema schema("customer");
  schema.AddColumn("c_custkey", DataType::Int64(), false)
      .AddColumn("c_name", DataType::String())
      .AddColumn("c_nation", DataType::Int64());
  schema.SetPrimaryKey({"c_custkey"});
  return schema;
}

TableSchema Lineitem() {
  TableSchema schema("lineitem");
  schema.AddColumn("l_orderkey", DataType::Int64(), false)
      .AddColumn("l_linenumber", DataType::Int64(), false)
      .AddColumn("l_qty", DataType::Int64());
  schema.SetPrimaryKey({"l_orderkey", "l_linenumber"});
  return schema;
}

InferredProps Derive(const PlanRef& plan, InferOptions options = {}) {
  InferenceEngine engine(options);
  return engine.Infer(plan);
}

/// True if `set` is one of the derived unique sets (not merely implied).
bool HasSet(const InferredProps& props, std::vector<std::string> set) {
  std::sort(set.begin(), set.end());
  for (const auto& existing : props.unique_sets) {
    if (existing == set) return true;
  }
  return false;
}

TEST(InferPlanTest, ScanDerivesBaseKeysAndOrigins) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c").Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasSet(props, {"c.c_custkey"}));
  const ValueSource* origin = props.Origin("c.c_name");
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->table, "customer");
  EXPECT_EQ(origin->column, "c_name");
  EXPECT_EQ(origin->source_id, plan->id());
}

TEST(InferPlanTest, DeclaredKeysGatedByTrust) {
  TableSchema schema("d");
  schema.AddColumn("k", DataType::Int64());
  schema.AddDeclaredUniqueKey({"k"});
  PlanRef plan = PlanBuilder::ScanSchema(schema, "d").Build();
  EXPECT_TRUE(HasSet(Derive(plan), {"d.k"}));
  InferOptions untrusting;
  untrusting.trust_declared_cardinality = false;
  EXPECT_FALSE(HasSet(Derive(plan, untrusting), {"d.k"}));
}

TEST(InferPlanTest, FilterPinsConstantsAndReducesKeys) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
                     .Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasSet(props, {"l.l_orderkey", "l.l_linenumber"}));
  // AJ 2a-3: the pinned component drops out of the composite key.
  EXPECT_TRUE(HasSet(props, {"l.l_orderkey"}));
  ASSERT_TRUE(props.constants.count("l.l_linenumber"));
  EXPECT_EQ(props.constants.at("l.l_linenumber"), Value::Int64(1));
  // The pin is also recorded on the scan instance and the base column.
  const Value* pin = props.PinOf(plan->child(0)->id(), "l_linenumber");
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(*pin, Value::Int64(1));
  EXPECT_TRUE(props.base_constants.count("lineitem.l_linenumber"));
}

TEST(InferPlanTest, AlwaysFalseFilterMarksEmpty) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Filter(Eq(LitInt(1), LitInt(0)))
                     .Build();
  EXPECT_TRUE(Derive(plan).empty_relation);
}

TEST(InferPlanTest, ProjectRenamesKeysAndOrigins) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Customer(), "c")
          .ProjectColumns({"c.c_custkey", "c.c_name"}, {"id", "name"})
          .Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasSet(props, {"id"}));
  ASSERT_NE(props.Origin("name"), nullptr);
  EXPECT_EQ(props.Origin("name")->column, "c_name");
  // Computed expressions have no origin.
  PlanRef computed =
      PlanBuilder::ScanSchema(Customer(), "c")
          .Project({{Bin(BinaryOpKind::kAdd, Col("c.c_custkey"), LitInt(1)),
                     "k1"}})
          .Build();
  InferredProps computed_props = Derive(computed);
  EXPECT_EQ(computed_props.Origin("k1"), nullptr);
  EXPECT_EQ(computed_props.sources.count("k1"), 0u);
  EXPECT_TRUE(computed_props.unique_sets.empty());
}

TEST(InferPlanTest, KeysThroughSortAndLimitGated) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Sort({{Col("c.c_name"), true}})
                     .Limit(100)
                     .Build();
  EXPECT_TRUE(HasSet(Derive(plan), {"c.c_custkey"}));
  InferOptions options;
  options.keys_through_order_limit = false;  // everyone but HANA (UAJ 1b)
  InferredProps without = Derive(plan, options);
  EXPECT_TRUE(without.unique_sets.empty());
  EXPECT_FALSE(without.UniqueOn({"c.c_custkey"}));
}

TEST(InferPlanTest, JoinPreservesAnchorKeysThroughAugmentation) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_custkey")))
                     .Build();
  InferredProps with = Derive(plan);
  EXPECT_TRUE(HasSet(with, {"o.o_orderkey"}));
  // Right-side sources become null-extended under LOJ, so they are no
  // origin; the anchor's stay.
  ASSERT_EQ(with.sources.at("c.c_name").size(), 1u);
  EXPECT_TRUE(with.sources.at("c.c_name")[0].null_extended);
  EXPECT_EQ(with.Origin("c.c_name"), nullptr);
  EXPECT_NE(with.Origin("o.o_custkey"), nullptr);

  InferOptions options;
  options.keys_through_joins = false;  // "Postgres" / "System Y"
  EXPECT_FALSE(HasSet(Derive(plan, options), {"o.o_orderkey"}));
}

TEST(InferPlanTest, JoinOnNonKeyGivesCombinedKeyOnly) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_nation")))
                     .Build();
  InferredProps props = Derive(plan);
  // Matching may duplicate anchor rows: o_orderkey alone is not a key.
  EXPECT_FALSE(props.UniqueOn({"o.o_orderkey"}));
  EXPECT_TRUE(HasSet(props, {"o.o_orderkey", "c.c_custkey"}));
}

// --- join-cardinality analysis (§4.2) --------------------------------------

TEST(JoinAnalysisTest, AtMostOneViaKeyCoverage) {
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  InferenceEngine engine;
  JoinAnalysis analysis = engine.AnalyzeJoin(*join);
  EXPECT_TRUE(analysis.right_at_most_one);
  EXPECT_FALSE(analysis.right_exactly_one);  // no FK
  EXPECT_TRUE(analysis.purely_augmenting);   // LOJ + at-most-one
  EXPECT_TRUE(analysis.pure_equi);
  ASSERT_EQ(analysis.equi_pairs.size(), 1u);
  EXPECT_EQ(analysis.equi_pairs[0].first, "o.o_custkey");
  EXPECT_EQ(analysis.equi_pairs[0].second, "c.c_custkey");
}

TEST(JoinAnalysisTest, InnerJoinWithoutFkIsNotAugmenting) {
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("c.c_custkey"), Col("o.o_custkey")));
  InferenceEngine engine;
  JoinAnalysis analysis = engine.AnalyzeJoin(*join);
  EXPECT_TRUE(analysis.right_at_most_one);
  // An inner join may filter: not purely augmenting without exactly-one.
  EXPECT_FALSE(analysis.purely_augmenting);
  // Pairs are oriented (left, right) whatever the conjunct's order.
  ASSERT_EQ(analysis.equi_pairs.size(), 1u);
  EXPECT_EQ(analysis.equi_pairs[0].first, "o.o_custkey");
}

TEST(JoinAnalysisTest, ForeignKeyGivesExactlyOne) {
  TableSchema orders = Orders();
  orders.AddForeignKey({"o_custkey"}, "customer", {"c_custkey"});
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(orders, "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  InferenceEngine engine;
  JoinAnalysis analysis = engine.AnalyzeJoin(*join);
  EXPECT_TRUE(analysis.right_exactly_one);
  EXPECT_TRUE(analysis.purely_augmenting);
}

TEST(JoinAnalysisTest, NullableFkColumnBlocksExactlyOne) {
  TableSchema orders("orders");
  orders.AddColumn("o_orderkey", DataType::Int64(), false)
      .AddColumn("o_custkey", DataType::Int64(), /*nullable=*/true);
  orders.SetPrimaryKey({"o_orderkey"});
  orders.AddForeignKey({"o_custkey"}, "customer", {"c_custkey"});
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(orders, "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  InferenceEngine engine;
  // A NULL o_custkey row would be filtered by the inner join.
  EXPECT_FALSE(engine.AnalyzeJoin(*join).right_exactly_one);
}

TEST(JoinAnalysisTest, DeclaredCardinalityRespected) {
  TableSchema plain("p");
  plain.AddColumn("x", DataType::Int64());
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(plain, "p").Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("p.x")), DeclaredCardinality::kAtMostOne);
  InferenceEngine trusting;
  EXPECT_TRUE(trusting.AnalyzeJoin(*join).purely_augmenting);
  InferOptions options;
  options.trust_declared_cardinality = false;
  InferenceEngine skeptical(options);
  EXPECT_FALSE(skeptical.AnalyzeJoin(*join).purely_augmenting);
}

TEST(JoinAnalysisTest, EmptyAugmenterIsAtMostOne) {
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c")
          .Filter(LitBool(false))
          .Build(),
      JoinType::kLeftOuter, Eq(Col("o.o_custkey"), Col("c.c_nation")));
  InferenceEngine engine;
  EXPECT_TRUE(engine.Infer(join->right()).empty_relation);
  EXPECT_TRUE(engine.AnalyzeJoin(*join).purely_augmenting);
}

// --- UNION ALL keys and origins (Fig. 12) ----------------------------------

PlanRef StatusSubsetUnion(int64_t first_status, int64_t second_status) {
  TableSchema t("t");
  t.AddColumn("k", DataType::Int64(), false)
      .AddColumn("status", DataType::Int64());
  t.SetPrimaryKey({"k"});
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(first_status)))
                       .ProjectColumns({"x.k"}, {"k"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(second_status)))
                       .ProjectColumns({"y.k"}, {"k"});
  return PlanBuilder::UnionAll({c1, c2}, {"k"}).Build();
}

TEST(UnionInferTest, DisjointSubsetsPreserveKey) {
  EXPECT_TRUE(HasSet(Derive(StatusSubsetUnion(1, 2)), {"k"}));
}

TEST(UnionInferTest, OverlappingSubsetsDoNotPreserveKey) {
  // Same constant on both branches: rows can appear twice.
  EXPECT_FALSE(Derive(StatusSubsetUnion(1, 1)).UniqueOn({"k"}));
}

TEST(UnionInferTest, LogicalTableOriginAgreement) {
  TableSchema active("active");
  active.AddColumn("k", DataType::Int64(), false);
  active.SetPrimaryKey({"k"});
  TableSchema draft("draft");
  draft.AddColumn("k", DataType::Int64(), false);
  draft.SetPrimaryKey({"k"});
  PlanBuilder a = PlanBuilder::ScanSchema(active, "a").ProjectColumns(
      {"a.k"}, {"k"});
  PlanBuilder d = PlanBuilder::ScanSchema(draft, "d").ProjectColumns(
      {"d.k"}, {"k"});
  PlanRef plan =
      PlanBuilder::UnionAll({a, d}, {"k"}, -1, "document").Build();
  InferredProps props = Derive(plan);
  const ValueSource* origin = props.Origin("k");
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->table, "document");
  EXPECT_EQ(origin->column, "k");
  EXPECT_EQ(origin->source_id, plan->id());
}

// --- the memo ---------------------------------------------------------------

TEST(InferPlanTest, OneEntryPerDistinctJeibNode) {
  Database db;
  ASSERT_TRUE(CreateS4Schema(&db).ok());
  ASSERT_TRUE(BuildJournalEntryItemBrowser(&db).ok());
  Result<PlanRef> root = db.BindQuery("select * from journalentryitembrowser");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  std::set<const LogicalOp*> nodes;
  VisitPlan(*root, [&](const PlanRef& node) { nodes.insert(node.get()); });

  InferenceEngine engine;
  engine.Infer(*root);
  EXPECT_EQ(engine.size(), nodes.size());
  // Deriving again, any subtree, or analyzing a join adds nothing.
  engine.Infer(*root);
  engine.Infer((*root)->child(0));
  VisitPlan(*root, [&](const PlanRef& node) {
    if (node->kind() == OpKind::kJoin) {
      engine.AnalyzeJoin(static_cast<const JoinOp&>(*node));
    }
  });
  EXPECT_EQ(engine.size(), nodes.size());
}

}  // namespace
}  // namespace vdm
