// E5 — Paper Fig. 3 / Fig. 4: the JournalEntryItemBrowser plan shape.
//
// Prints the raw (fully inlined) plan statistics of
// "select * from JournalEntryItemBrowser" and the optimized plan of
// "select count(*) from JournalEntryItemBrowser", plus runtimes of both
// forms, reproducing the paper's 47-joins-to-4-joins collapse, and the
// optimizer's compile time per query. Writes BENCH_fig3_fig4_jeib.json:
// per query, ns_per_op is the optimized plan's execution median and
// compile_ns_per_op the median Database::OptimizePlan time of its bound
// plan under the HANA profile (binding excluded).
#include <cstdio>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "plan/plan_printer.h"
#include "vdm/jeib.h"
#include "workload/s4.h"

using namespace vdm;
using bench::JsonReporter;
using bench::MedianMillis;
using bench::TablePrinter;

int main() {
  Database db;
  S4Options options;
  options.acdoca_rows = 100000;
  options.dimension_rows = 1000;
  VDM_CHECK(CreateS4Schema(&db, options).ok());
  VDM_CHECK(LoadS4Data(&db, options).ok());
  VDM_CHECK(BuildJournalEntryItemBrowser(&db).ok());

  std::string star = "select * from journalentryitembrowser";
  std::string count = "select count(*) from journalentryitembrowser";

  // --- Fig. 3: the raw plan. ---------------------------------------------
  Result<PlanRef> raw = db.BindQuery(star);
  VDM_CHECK(raw.ok());
  PlanStats raw_stats = ComputePlanStats(*raw);
  std::printf("== Fig. 3: raw plan of \"%s\" ==\n", star.c_str());
  std::printf("  %s\n", raw_stats.ToString().c_str());
  std::printf(
      "  paper: 47 table instances (62 unshared), 49 joins, one 5-way "
      "UNION ALL,\n  one GROUP BY, one DISTINCT; this engine builds trees "
      "(unshared counting).\n\n");

  // --- Fig. 4: the optimized count(*) plan. ------------------------------
  db.SetProfile(SystemProfile::kHana);
  Result<PlanRef> optimized = db.PlanQuery(count);
  VDM_CHECK(optimized.ok());
  PlanStats opt_stats = ComputePlanStats(*optimized);
  std::printf("== Fig. 4: optimized plan of \"%s\" ==\n", count.c_str());
  std::printf("  %s\n", opt_stats.ToString().c_str());
  std::printf(
      "  paper: the 3-way ACDOCA/company/ledger core plus the two "
      "DAC-protected\n  KNA1/LFA1 joins survive; all other joins are "
      "pruned.\n\n");
  std::printf("%s\n", PrintPlan(*optimized).c_str());

  // --- Runtime impact. -----------------------------------------------------
  TablePrinter timing(
      {"query", "unoptimized", "optimized", "speedup", "optimize"});
  JsonReporter reporter("fig3_fig4_jeib");
  for (const std::string& sql :
       {count, std::string("select rbukrs, sum(hsl) as total from "
                           "journalentryitembrowser group by rbukrs"),
        std::string("select belnr, documenttotal from "
                    "journalentryitembrowser limit 100")}) {
    db.SetProfile(SystemProfile::kNone);
    Result<PlanRef> raw_plan = db.PlanQuery(sql);
    VDM_CHECK(raw_plan.ok());
    double raw_ms = MedianMillis(
        [&] {
          Result<Chunk> r = db.ExecutePlan(*raw_plan);
          VDM_CHECK(r.ok());
        },
        3);
    db.SetProfile(SystemProfile::kHana);
    Result<PlanRef> bound = db.BindQuery(sql);
    VDM_CHECK(bound.ok());
    double optimize_ms = MedianMillis(
        [&] { VDM_CHECK(db.OptimizePlan(*bound).ok()); }, 5);
    Result<PlanRef> opt_plan = db.OptimizePlan(*bound);
    VDM_CHECK(opt_plan.ok());
    size_t rows = 0;
    double opt_ms = MedianMillis(
        [&] {
          Result<Chunk> r = db.ExecutePlan(*opt_plan);
          VDM_CHECK(r.ok());
          rows = r->NumRows();
        },
        3);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", raw_ms / opt_ms);
    timing.AddRow({sql.substr(0, 60), bench::Ms(raw_ms), bench::Ms(opt_ms),
                   speedup, bench::Ms(optimize_ms)});
    JsonReporter::CompileBreakdown compile;
    compile.compile_ms = optimize_ms;
    compile.execute_ms = opt_ms;
    reporter.AddTimed(sql, opt_ms, rows, compile);
  }
  timing.Print();
  reporter.Write();
  return 0;
}
