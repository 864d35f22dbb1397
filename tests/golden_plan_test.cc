// Golden-plan regression tests: the optimized plan of every paper
// micro-query (Fig. 5 UAJ, Fig. 6 paging, Fig. 10 ASJ, Fig. 12
// UNION ALL + UAJ) and of six ad-hoc JournalEntryItemBrowser shapes
// (Figs. 3/4) is locked, per optimizer profile, against checked-in
// snapshots under tests/golden/. Any rewrite-behavior change shows up as
// a readable plan diff in the test log.
//
// Regenerating after an intentional change:
//   VDM_UPDATE_GOLDEN=1 ./build/tests/golden_plan_test
// then review the tests/golden/ diff like any other code change.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "vdm/jeib.h"
#include "workload/s4.h"
#include "workload/tpch.h"

namespace vdm {
namespace {

/// "Fig. 10(a)" -> "fig_10a": display names become file-name slugs.
std::string Slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

const std::vector<SystemProfile> kProfiles = {
    SystemProfile::kNone,    SystemProfile::kHana,
    SystemProfile::kPostgres, SystemProfile::kSystemX,
    SystemProfile::kSystemY, SystemProfile::kSystemZ,
};

/// The five optimizing profiles; the raw 49-join JEIB expansion is left out
/// of its snapshots (vdm_views_test pins its shape).
const std::vector<SystemProfile> kOptimizingProfiles(kProfiles.begin() + 1,
                                                     kProfiles.end());

/// The per-profile plans of `sql`, as one snapshot document.
std::string RenderProfiles(Database* db, const std::string& sql,
                           const std::vector<SystemProfile>& profiles) {
  std::string out = "-- query:\n-- " + sql + "\n";
  for (SystemProfile profile : profiles) {
    db->SetProfile(profile);
    Result<std::string> plan = db->Explain(sql);
    EXPECT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    out += "\n-- profile: " + ProfileName(profile) + "\n";
    out += plan.ok() ? *plan : plan.status().ToString();
    if (out.back() != '\n') out += '\n';
  }
  return out;
}

void CheckGolden(Database* db, const std::string& name, const std::string& sql,
                 const std::vector<SystemProfile>& profiles) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + name + ".txt";
  const std::string actual = RenderProfiles(db, sql, profiles);
  if (std::getenv("VDM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_LOG_(INFO) << "updated " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with VDM_UPDATE_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "plan drift for " << name << "; if intentional, regenerate via "
      << "VDM_UPDATE_GOLDEN=1 and review the tests/golden/ diff";
}

class GoldenPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    // Plans are locked over a fixed, analyzed data distribution so the
    // cost-based join order is deterministic and meaningful.
    TpchOptions options;
    options.scale = 0.01;
    ASSERT_TRUE(CreateTpchSchema(db_, options).ok());
    ASSERT_TRUE(LoadTpchData(db_, options).ok());
    db_->AnalyzeTables();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static void CheckGolden(const std::string& name, const std::string& sql) {
    vdm::CheckGolden(db_, name, sql, kProfiles);
  }

  static Database* db_;
};

Database* GoldenPlanTest::db_ = nullptr;

TEST_F(GoldenPlanTest, UajQueries) {  // paper Fig. 5
  for (UajQuery query : AllUajQueries()) {
    CheckGolden(Slug(UajQueryName(query)), UajQuerySql(query));
  }
}

TEST_F(GoldenPlanTest, PagingQuery) {  // paper Fig. 6
  CheckGolden("paging_limit10_offset20", PagingQuerySql(10, 20));
}

TEST_F(GoldenPlanTest, AsjQueries) {  // paper Fig. 10
  for (AsjQuery query : AllAsjQueries()) {
    CheckGolden("asj_" + Slug(AsjQueryName(query)), AsjQuerySql(query));
  }
}

TEST_F(GoldenPlanTest, UnionUajQueries) {  // paper Fig. 12
  for (UnionUajQuery query : AllUnionUajQueries()) {
    CheckGolden("union_" + Slug(UnionUajQueryName(query)),
                UnionUajQuerySql(query));
  }
}

/// The ad-hoc field subsets the htapbench vdm_adhoc workload sends to the
/// 49-join JournalEntryItemBrowser view: each shape exercises a different
/// part of the UAJ/ASJ proofs (§4.3) on the same view stack.
class JeibGoldenPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    S4Options options;
    options.acdoca_rows = 2000;
    options.dimension_rows = 100;
    ASSERT_TRUE(CreateS4Schema(db_, options).ok());
    ASSERT_TRUE(LoadS4Data(db_, options).ok());
    ASSERT_TRUE(BuildJournalEntryItemBrowser(db_).ok());
    db_->AnalyzeTables();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static void CheckGolden(const std::string& name, const std::string& sql) {
    vdm::CheckGolden(db_, name, sql, kOptimizingProfiles);
  }

  static Database* db_;
};

Database* JeibGoldenPlanTest::db_ = nullptr;

TEST_F(JeibGoldenPlanTest, GroupedCountWithCompanyFilter) {
  CheckGolden("jeib_grouped_count",
              "select companyname, glaccountname, count(*) as n from "
              "journalentryitembrowser where rbukrs = 'C007' group by "
              "companyname, glaccountname");
}

TEST_F(JeibGoldenPlanTest, DocumentTotalPage) {
  CheckGolden("jeib_documenttotal_page",
              "select belnr, customername, documenttotal, ledgername from "
              "journalentryitembrowser limit 100 offset 200");
}

TEST_F(JeibGoldenPlanTest, BudatRangeProjection) {
  CheckGolden("jeib_budat_range",
              "select racct, partnername, hsl, budat from "
              "journalentryitembrowser where budat >= date '2021-03-01' and "
              "budat < date '2021-03-03'");
}

TEST_F(JeibGoldenPlanTest, GroupedSumWithoutCompanyFilter) {
  CheckGolden("jeib_grouped_sum",
              "select gjahr, partnername, sum(hsl) as s from "
              "journalentryitembrowser group by gjahr, partnername");
}

TEST_F(JeibGoldenPlanTest, EightFieldPage) {
  CheckGolden("jeib_eight_field_page",
              "select belnr, docln, racct, companyname, customername, "
              "suppliername, costcentername, chain3name_0 from "
              "journalentryitembrowser limit 1000 offset 4000");
}

TEST_F(JeibGoldenPlanTest, HslRangeProjection) {
  CheckGolden("jeib_hsl_range",
              "select belnr, glaccountname, profitcentername, hsl from "
              "journalentryitembrowser where hsl >= 1200 and hsl < 1320");
}

}  // namespace
}  // namespace vdm
