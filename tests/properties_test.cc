// Unit tests for the optimizer's property derivation: unique keys,
// constant pinning, provenance, join-cardinality analysis — including the
// capability gates that model the paper's weaker optimizers — and the
// per-optimization PropsCache that memoizes it.
#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "optimizer/properties.h"
#include "plan/plan_builder.h"
#include "vdm/jeib.h"
#include "workload/s4.h"

namespace vdm {
namespace {

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

bool HasKey(const RelProps& props, std::vector<std::string> key) {
  std::sort(key.begin(), key.end());
  for (const auto& existing : props.unique_keys) {
    if (existing == key) return true;
  }
  return false;
}

TEST(PropertiesTest, ScanDerivesBaseKeys) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c").Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(props, {"c.c_custkey"}));
  ASSERT_TRUE(props.origins.count("c.c_name"));
  EXPECT_EQ(props.origins.at("c.c_name").table, "customer");
  EXPECT_EQ(props.origins.at("c.c_name").column, "c_name");
  EXPECT_FALSE(props.origins.at("c.c_name").null_extended);
}

TEST(PropertiesTest, BaseKeysGatedByConfig) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c").Build();
  DerivationConfig config;
  config.base_table_keys = false;  // "System X"
  RelProps props = DeriveProps(plan, config);
  EXPECT_TRUE(props.unique_keys.empty());
}

TEST(PropertiesTest, DeclaredKeysGatedByTrust) {
  TableSchema schema("d");
  schema.AddColumn("k", DataType::Int64());
  schema.AddDeclaredUniqueKey({"k"});
  PlanRef plan = PlanBuilder::ScanSchema(schema, "d").Build();
  RelProps trusted = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(trusted, {"d.k"}));
  DerivationConfig untrusting;
  untrusting.trust_declared_cardinality = false;
  RelProps skeptical = DeriveProps(plan, untrusting);
  EXPECT_FALSE(HasKey(skeptical, {"d.k"}));
}

TEST(PropertiesTest, FilterPinsConstantsAndReducesKeys) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
                     .Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(props, {"l.l_orderkey", "l.l_linenumber"}));
  // AJ 2a-3: the pinned component drops out of the composite key.
  EXPECT_TRUE(HasKey(props, {"l.l_orderkey"}));
  ASSERT_TRUE(props.constants.count("l.l_linenumber"));
  EXPECT_EQ(props.constants.at("l.l_linenumber"), Value::Int64(1));
}

TEST(PropertiesTest, ConstPinningGate) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
                     .Build();
  DerivationConfig config;
  config.const_pinning = false;
  RelProps props = DeriveProps(plan, config);
  EXPECT_FALSE(HasKey(props, {"l.l_orderkey"}));
}

TEST(PropertiesTest, AlwaysFalseFilterMarksEmpty) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Filter(Eq(LitInt(1), LitInt(0)))
                     .Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(props.empty_relation);
}

TEST(PropertiesTest, ProjectRenamesKeysAndOrigins) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Customer(), "c")
          .ProjectColumns({"c.c_custkey", "c.c_name"}, {"id", "name"})
          .Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(props, {"id"}));
  EXPECT_EQ(props.origins.at("name").column, "c_name");
  // Computed expressions have no origin.
  PlanRef computed =
      PlanBuilder::ScanSchema(Customer(), "c")
          .Project({{Bin(BinaryOpKind::kAdd, Col("c.c_custkey"), LitInt(1)),
                     "k1"}})
          .Build();
  RelProps computed_props = DeriveProps(computed, DerivationConfig{});
  EXPECT_EQ(computed_props.origins.count("k1"), 0u);
  EXPECT_TRUE(computed_props.unique_keys.empty());
}

TEST(PropertiesTest, AggregateGroupKeysGated) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Lineitem(), "l")
          .Aggregate({{Col("l.l_orderkey"), "l.l_orderkey"}},
                     {{Agg(AggKind::kSum, Col("l.l_qty")), "qty"}})
          .Build();
  RelProps with = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(with, {"l.l_orderkey"}));
  DerivationConfig config;
  config.groupby_keys = false;  // "System Y"
  RelProps without = DeriveProps(plan, config);
  EXPECT_FALSE(HasKey(without, {"l.l_orderkey"}));
}

TEST(PropertiesTest, GlobalAggregateIsSingleRow) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Aggregate({}, {{CountStar(), "n"}})
                     .Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(props, {"n"}));
}

TEST(PropertiesTest, KeysThroughSortAndLimitGated) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Sort({{Col("c.c_name"), true}})
                     .Limit(100)
                     .Build();
  RelProps with = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(with, {"c.c_custkey"}));
  DerivationConfig config;
  config.keys_through_order_limit = false;  // everyone but HANA (UAJ 1b)
  RelProps without = DeriveProps(plan, config);
  EXPECT_TRUE(without.unique_keys.empty());
}

TEST(PropertiesTest, JoinPreservesAnchorKeysThroughAugmentation) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_custkey")))
                     .Build();
  RelProps with = DeriveProps(plan, DerivationConfig{});
  EXPECT_TRUE(HasKey(with, {"o.o_orderkey"}));
  // Right-side origins become null-extended under LOJ.
  EXPECT_TRUE(with.origins.at("c.c_name").null_extended);
  EXPECT_FALSE(with.origins.at("o.o_custkey").null_extended);

  DerivationConfig config;
  config.keys_through_joins = false;  // "Postgres" / "System Y"
  RelProps without = DeriveProps(plan, config);
  EXPECT_FALSE(HasKey(without, {"o.o_orderkey"}));
}

TEST(PropertiesTest, JoinOnNonKeyGivesCombinedKeyOnly) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_nation")))
                     .Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  // Matching may duplicate anchor rows: o_orderkey alone is not a key.
  EXPECT_FALSE(HasKey(props, {"o.o_orderkey"}));
  EXPECT_TRUE(HasKey(props, {"o.o_orderkey", "c.c_custkey"}));
}

TEST(JoinAnalysisTest, AtMostOneViaKeyCoverage) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  auto join = std::make_shared<JoinOp>(
      orders.Build(), customer.Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  JoinAnalysis analysis = AnalyzeJoin(*join, left, right, config);
  EXPECT_TRUE(analysis.right_at_most_one);
  EXPECT_FALSE(analysis.right_exactly_one);  // no FK
  EXPECT_TRUE(analysis.purely_augmenting);   // LOJ + at-most-one
  ASSERT_EQ(analysis.equi_pairs.size(), 1u);
  EXPECT_EQ(analysis.equi_pairs[0].first, "o.o_custkey");
  EXPECT_EQ(analysis.equi_pairs[0].second, "c.c_custkey");
}

TEST(JoinAnalysisTest, InnerJoinWithoutFkIsNotAugmenting) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  auto join = std::make_shared<JoinOp>(
      orders.Build(), customer.Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  JoinAnalysis analysis = AnalyzeJoin(*join, left, right, config);
  EXPECT_TRUE(analysis.right_at_most_one);
  // An inner join may filter: not purely augmenting without exactly-one.
  EXPECT_FALSE(analysis.purely_augmenting);
}

TEST(JoinAnalysisTest, ForeignKeyGivesExactlyOne) {
  TableSchema orders = Orders();
  orders.AddForeignKey({"o_custkey"}, "customer", {"c_custkey"});
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(orders, "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  JoinAnalysis analysis = AnalyzeJoin(*join, left, right, config);
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
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  JoinAnalysis analysis = AnalyzeJoin(*join, left, right, config);
  // A NULL o_custkey row would be filtered by the inner join.
  EXPECT_FALSE(analysis.right_exactly_one);
}

TEST(JoinAnalysisTest, DeclaredCardinalityRespected) {
  TableSchema plain("p");
  plain.AddColumn("x", DataType::Int64());
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(plain, "p").Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("p.x")), DeclaredCardinality::kAtMostOne);
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  EXPECT_TRUE(AnalyzeJoin(*join, left, right, config).purely_augmenting);
  config.trust_declared_cardinality = false;
  EXPECT_FALSE(AnalyzeJoin(*join, left, right, config).purely_augmenting);
}

TEST(JoinAnalysisTest, EmptyAugmenterIsAtMostOne) {
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c")
          .Filter(LitBool(false))
          .Build(),
      JoinType::kLeftOuter, Eq(Col("o.o_custkey"), Col("c.c_nation")));
  DerivationConfig config;
  RelProps left = DeriveProps(join->left(), config);
  RelProps right = DeriveProps(join->right(), config);
  EXPECT_TRUE(right.empty_relation);
  EXPECT_TRUE(AnalyzeJoin(*join, left, right, config).purely_augmenting);
}

// --- UNION ALL key derivation (Fig. 12) ------------------------------------

PlanRef BranchIdUnion() {
  TableSchema active("active");
  active.AddColumn("k", DataType::Int64(), false);
  active.SetPrimaryKey({"k"});
  TableSchema draft("draft");
  draft.AddColumn("k", DataType::Int64(), false);
  draft.SetPrimaryKey({"k"});
  PlanBuilder a = PlanBuilder::ScanSchema(active, "a").Project(
      {{Col("a.k"), "k"}, {LitInt(1), "bid"}});
  PlanBuilder d = PlanBuilder::ScanSchema(draft, "d").Project(
      {{Col("d.k"), "k"}, {LitInt(2), "bid"}});
  return PlanBuilder::UnionAll({a, d}, {"k", "bid"}).Build();
}

TEST(UnionPropertiesTest, BranchIdKeyDerived) {
  RelProps props = DeriveProps(BranchIdUnion(), DerivationConfig{});
  bool found = false;
  for (const auto& key : props.unique_keys) {
    if (key == std::vector<std::string>{"bid", "k"}) found = true;
  }
  EXPECT_TRUE(found);
  // Plain k alone is NOT unique across branches.
  for (const auto& key : props.unique_keys) {
    EXPECT_NE(key, std::vector<std::string>{"k"});
  }
}

TEST(UnionPropertiesTest, UnionKeysGated) {
  DerivationConfig config;
  config.keys_through_union_all = false;
  RelProps props = DeriveProps(BranchIdUnion(), config);
  EXPECT_TRUE(props.unique_keys.empty());
}

TEST(UnionPropertiesTest, DisjointSubsetsPreserveKey) {
  TableSchema t("t");
  t.AddColumn("k", DataType::Int64(), false)
      .AddColumn("status", DataType::Int64());
  t.SetPrimaryKey({"k"});
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.k"}, {"k"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(2)))
                       .ProjectColumns({"y.k"}, {"k"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"k"}).Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  bool found = false;
  for (const auto& key : props.unique_keys) {
    if (key == std::vector<std::string>{"k"}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(UnionPropertiesTest, OverlappingSubsetsDoNotPreserveKey) {
  TableSchema t("t");
  t.AddColumn("k", DataType::Int64(), false)
      .AddColumn("status", DataType::Int64());
  t.SetPrimaryKey({"k"});
  // Same constant on both branches: rows can appear twice.
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.k"}, {"k"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(1)))
                       .ProjectColumns({"y.k"}, {"k"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"k"}).Build();
  RelProps props = DeriveProps(plan, DerivationConfig{});
  for (const auto& key : props.unique_keys) {
    EXPECT_NE(key, std::vector<std::string>{"k"});
  }
}

TEST(UnionPropertiesTest, LogicalTableOriginAgreement) {
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
  RelProps props = DeriveProps(plan, DerivationConfig{});
  ASSERT_TRUE(props.origins.count("k"));
  EXPECT_EQ(props.origins.at("k").table, "document");
  EXPECT_EQ(props.origins.at("k").column, "k");
  EXPECT_EQ(props.origins.at("k").source_id, plan->id());
}

// WithChildren keeps a node's id while replacing its children, so a cache
// keyed by id() would hand the rebuilt node the old subtree's facts.
TEST(PropsCacheTest, KeyedByNodeIdentityNotId) {
  // (l_orderkey, l_linenumber) is the key; pinning l_linenumber leaves
  // l_orderkey unique.
  PlanRef pinned =
      PlanBuilder::ScanSchema(Lineitem(), "l")
          .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
          .ProjectColumns({"l.l_orderkey", "l.l_qty"}, {"orderkey", "qty"})
          .Build();
  ASSERT_EQ(pinned->child(0)->kind(), OpKind::kFilter);
  PlanRef unpinned = pinned->WithChildren({pinned->child(0)->child(0)});
  ASSERT_EQ(unpinned->id(), pinned->id());

  PropsCache cache(DerivationConfig{});
  EXPECT_TRUE(cache.Props(pinned).HasKey({"orderkey"}));
  EXPECT_FALSE(cache.Props(unpinned).HasKey({"orderkey"}));
  EXPECT_TRUE(cache.Inferred(pinned).UniqueOn({"orderkey"}));
  EXPECT_FALSE(cache.Inferred(unpinned).UniqueOn({"orderkey"}));
  // The rebuilt node's facts are the ones a fresh derivation gives.
  EXPECT_EQ(cache.Props(unpinned).ToString(),
            DeriveProps(unpinned, DerivationConfig{}).ToString());
}

TEST(PropsCacheTest, OneEntryPerDistinctJeibNode) {
  Database db;
  ASSERT_TRUE(CreateS4Schema(&db).ok());
  ASSERT_TRUE(BuildJournalEntryItemBrowser(&db).ok());
  Result<PlanRef> root = db.BindQuery("select * from journalentryitembrowser");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  std::set<const LogicalOp*> nodes;
  VisitPlan(*root, [&](const PlanRef& node) { nodes.insert(node.get()); });

  PropsCache cache(DerivationConfig{});
  cache.Props(*root);
  cache.Inferred(*root);
  EXPECT_EQ(cache.size(), nodes.size());
  EXPECT_EQ(cache.engine().size(), nodes.size());
  // Deriving again (or any subtree) adds nothing.
  cache.Props(*root);
  cache.Props((*root)->child(0));
  cache.Inferred(*root);
  EXPECT_EQ(cache.size(), nodes.size());
  EXPECT_EQ(cache.engine().size(), nodes.size());
}

}  // namespace
}  // namespace vdm
