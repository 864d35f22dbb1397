#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "plan/plan_printer.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/binder.h"
#include "sql/parameterize.h"
#include "sql/parser.h"
#include "testing/differential.h"
#include "trace.h"
#include "vdm/jeib.h"
#include "workload/s4.h"
#include "workload/tpch.h"

namespace htapbench {

using vdm::Chunk;
using vdm::Database;
using vdm::ExecMetrics;
using vdm::PlanCacheStats;
using vdm::QueryTiming;
using vdm::Result;
using vdm::Status;
using vdm::StrFormat;
using vdm::VdmClient;

namespace {

using Clock = std::chrono::steady_clock;

// --- sizes and rates (README.md explains each choice) ---------------------
constexpr int64_t kAcdocaRows = 100000;   // bench_fig3_fig4_jeib size
constexpr int64_t kDimensionRows = 1000;
constexpr double kTpchScale = 0.2;
constexpr int kSetups = 5;                // setup_s is their median
constexpr int kMaxConnections = 4;
// paging_serve open-loop sweep: light load, the p99 rate, under the knee.
constexpr double kPagingRates[] = {1000, 2000, 3000};
constexpr double kLatencyLimitMs = 20;    // sustained_qps limit on p99
constexpr double kDocumentsPerSecond = 50;
constexpr size_t kMergeThresholdRows = 600;
// The open-loop generator is behind schedule when its own lateness (not
// the server's) exceeds this share of its shortest per-connection gap
// between requests, at p99.
constexpr double kLateShareOfGap = 0.5;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Waits until `due` by yielding the CPU in a loop instead of sleeping: a
/// sleeping thread's wake-up can be milliseconds late on a virtual CPU, and
/// that lateness would count against the server.
void SpinUntil(Clock::time_point due) {
  while (Clock::now() < due) std::this_thread::yield();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Linear-interpolated quantile of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it.
std::string TailPercentile(size_t n) {
  std::string best = "none";
  const std::pair<const char*, double> kTails[] = {
      {"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99},
      {"p99.9", 0.999}};
  for (auto [name, q] : kTails) {
    if (static_cast<double>(n) * (1 - q) >= 10) best = name;
  }
  return best;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Amount in cents from a decimal/integer/double value.
int64_t Cents(const vdm::Value& v) {
  if (v.is_null()) return 0;
  switch (v.type().id) {
    case vdm::TypeId::kDecimal: {
      int64_t u = v.AsUnscaled();
      for (int s = v.type().scale; s > 2; --s) u /= 10;
      for (int s = v.type().scale; s < 2; ++s) u *= 10;
      return u;
    }
    case vdm::TypeId::kDouble:
      return std::llround(v.AsDouble() * 100);
    default:
      return v.AsInt64() * 100;
  }
}

// --- fixture --------------------------------------------------------------

/// One loaded database behind an in-process server, with the workload's
/// client connections open and warmed. Members are declared so that the
/// clients close first and the database goes last.
struct Fixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<vdm::Server> server;
  std::vector<std::unique_ptr<VdmClient>> clients;
  /// paging_serve: each client's PREPAREd paging handle.
  std::vector<uint32_t> paging_stmts;
  /// paging_serve: the in-process twin of the handle (traced replay).
  std::shared_ptr<const vdm::PreparedStatement> prepared;
  vdm::ExecLimits limits;
};

int Connections(Workload workload) {
  switch (workload) {
    case Workload::kVdmAdhoc:
      return 1;
    case Workload::kJournalHtap:
      return 2;  // reader, writer
    case Workload::kPagingServe:
      break;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxConnections);
}

Result<std::unique_ptr<Fixture>> SetUp(Workload workload) {
  auto fx = std::make_unique<Fixture>();
  fx->db = std::make_unique<Database>();
  Database& db = *fx->db;
  if (workload == Workload::kPagingServe) {
    vdm::TpchOptions tpch;
    tpch.scale = kTpchScale;
    VDM_RETURN_NOT_OK(vdm::CreateTpchSchema(&db, tpch));
    VDM_RETURN_NOT_OK(vdm::LoadTpchData(&db, tpch));
  } else {
    vdm::S4Options s4;
    s4.acdoca_rows = kAcdocaRows;
    s4.dimension_rows = kDimensionRows;
    VDM_RETURN_NOT_OK(vdm::CreateS4Schema(&db, s4));
    VDM_RETURN_NOT_OK(vdm::LoadS4Data(&db, s4));
    VDM_RETURN_NOT_OK(vdm::BuildJournalEntryItemBrowser(&db));
  }
  // One execution thread per statement on every workload: on a shared
  // 4-vCPU machine, parallel morsel execution (hardware threads) gained
  // ~12% on vdm_adhoc but widened the run-to-run p50 spread 2-3x.
  vdm::ExecOptions exec;
  exec.num_threads = 1;
  db.SetExecOptions(exec);
  db.AnalyzeTables();
  db.SetProfile(vdm::SystemProfile::kHana);
  db.EnablePlanCache();
  fx->limits.timeout_ms = 60000;
  db.set_default_limits(fx->limits);
  if (workload == Workload::kJournalHtap) {
    db.SetMergeThreshold(kMergeThresholdRows);
  }

  fx->server = std::make_unique<vdm::Server>(&db);
  VDM_RETURN_NOT_OK(fx->server->Start());
  vdm::HelloMsg hello;
  hello.timeout_ms = fx->limits.timeout_ms;
  for (int c = 0; c < Connections(workload); ++c) {
    auto client = std::make_unique<VdmClient>();
    VDM_RETURN_NOT_OK(client->Connect("127.0.0.1", fx->server->port()));
    VDM_RETURN_NOT_OK(client->Hello(hello));
    fx->clients.push_back(std::move(client));
  }

  // Warm-up: thread pools, lazy dictionaries, and (paging) every item's
  // plan in the cache.
  if (workload == Workload::kPagingServe) {
    const std::string sql = vdm::PagingQuerySql(10, 0);
    VDM_ASSIGN_OR_RETURN(fx->prepared, db.Prepare(sql));
    for (auto& client : fx->clients) {
      VDM_ASSIGN_OR_RETURN(vdm::PreparedMsg msg, client->Prepare(sql));
      if (!msg.has_limit || !msg.has_offset) {
        return Status::Internal("paging statement did not parameterize");
      }
      fx->paging_stmts.push_back(msg.stmt_id);
      for (const Request& item : PagingItems()) {
        VDM_RETURN_NOT_OK(
            client->Execute(msg.stmt_id, {}, item.limit, item.offset)
                .status());
      }
    }
  } else {
    for (const char* sql :
         {"select count(*) from journalentryitembrowser",
          "select rbukrs, sum(hsl) as total from journalentryitembrowser "
          "group by rbukrs",
          "select belnr, documenttotal from journalentryitembrowser "
          "limit 100"}) {
      VDM_RETURN_NOT_OK(fx->clients[0]->Query(sql).status());
    }
  }
  return fx;
}

// --- reference answers -----------------------------------------------------

/// What read answers are checked against.
struct Expectations {
  /// JEIB per-company row counts and sum(hsl) in cents; "" = all.
  std::map<std::string, int64_t> count;
  std::map<std::string, int64_t> sum_cents;
  /// False under journal writes: counts grow, only sums are invariant.
  bool counts_fixed = true;
  std::map<int64_t, int64_t> budat_count;
  std::vector<int64_t> hsl_cents;  // sorted
  /// paging_serve, per item: the answer in served order, and the kNone
  /// answer as an unordered multiset.
  std::vector<std::vector<std::string>> item_ordered;
  std::vector<std::vector<std::string>> item_unordered;
};

/// Runs each statement under the HANA profile and under kNone (no
/// rewrites) and appends a message to `errors` wherever the two answers
/// differ as multisets. Returns the HANA answers. Leaves the database on
/// the HANA profile (both switches clear the plan cache).
Result<std::vector<Chunk>> CrossCheck(Database* db,
                                      const std::vector<std::string>& sqls,
                                      bool plant_wrong_row,
                                      std::vector<std::string>* errors) {
  std::vector<Chunk> hana;
  for (const std::string& sql : sqls) {
    VDM_ASSIGN_OR_RETURN(Chunk c, db->Query(sql));
    hana.push_back(std::move(c));
  }
  db->SetProfile(vdm::SystemProfile::kNone);
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<Chunk> none = db->Query(sqls[i]);
    if (!none.ok()) {
      db->SetProfile(vdm::SystemProfile::kHana);
      return none.status();
    }
    std::vector<std::string> expected = vdm::NormalizeChunk(*none, false);
    if (plant_wrong_row && i == 0) expected.push_back("planted wrong row|");
    if (vdm::NormalizeChunk(hana[i], false) != expected) {
      errors->push_back("answer differs from the kNone profile: " + sqls[i]);
    }
  }
  db->SetProfile(vdm::SystemProfile::kHana);
  return hana;
}

const char* kCompanyTotalsSql =
    "select rbukrs, count(*) as n, sum(hsl) as s "
    "from journalentryitembrowser group by rbukrs";

void ReadCompanyTotals(const Chunk& c, Expectations* exp) {
  exp->count.clear();
  exp->sum_cents.clear();
  for (size_t i = 0; i < c.NumRows(); ++i) {
    const std::string company = c.columns[0].GetValue(i).AsString();
    const int64_t n = c.columns[1].GetValue(i).AsInt64();
    const int64_t s = Cents(c.columns[2].GetValue(i));
    exp->count[company] = n;
    exp->sum_cents[company] = s;
    exp->count[""] += n;
    exp->sum_cents[""] += s;
  }
}

int64_t ValueOr0(const std::map<std::string, int64_t>& m,
                 const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

/// An empty string when the answer is right; otherwise what is wrong.
std::string CheckAnswer(const Request& r, const Chunk& c,
                        const Expectations& exp) {
  if (c.NumColumns() != r.columns) {
    return StrFormat("%zu columns, expected %zu", c.NumColumns(), r.columns);
  }
  switch (r.kind) {
    case RequestKind::kAggregate: {
      const vdm::ColumnData& measure = c.columns.back();
      int64_t total = 0;
      for (size_t i = 0; i < c.NumRows(); ++i) {
        total += r.sum ? Cents(measure.GetValue(i))
                       : measure.GetValue(i).AsInt64();
      }
      if (r.sum) {
        const int64_t want = ValueOr0(exp.sum_cents, r.company);
        if (total != want) {
          return StrFormat("groups sum to %lld cents, expected %lld",
                           static_cast<long long>(total),
                           static_cast<long long>(want));
        }
      } else if (exp.counts_fixed && total != ValueOr0(exp.count, r.company)) {
        return StrFormat("groups count %lld rows, expected %lld",
                         static_cast<long long>(total),
                         static_cast<long long>(ValueOr0(exp.count, r.company)));
      }
      return "";
    }
    case RequestKind::kPage: {
      const int64_t want = std::clamp<int64_t>(
          ValueOr0(exp.count, "") - r.offset, 0, r.limit);
      if (static_cast<int64_t>(c.NumRows()) != want) {
        return StrFormat("%zu rows, expected %lld", c.NumRows(),
                         static_cast<long long>(want));
      }
      return "";
    }
    case RequestKind::kRange: {
      const bool by_date = r.range_column == "budat";
      int64_t want = 0;
      if (by_date) {
        for (int64_t d = r.lo; d < r.hi; ++d) {
          auto it = exp.budat_count.find(d);
          if (it != exp.budat_count.end()) want += it->second;
        }
      } else {
        want = std::lower_bound(exp.hsl_cents.begin(), exp.hsl_cents.end(),
                                r.hi * 100) -
               std::lower_bound(exp.hsl_cents.begin(), exp.hsl_cents.end(),
                                r.lo * 100);
      }
      if (static_cast<int64_t>(c.NumRows()) != want) {
        return StrFormat("%zu rows, expected %lld", c.NumRows(),
                         static_cast<long long>(want));
      }
      const int col = c.FindColumn(r.range_column);
      if (col < 0) return "range column missing";
      for (size_t i = 0; i < c.NumRows(); ++i) {
        const vdm::Value v = c.columns[static_cast<size_t>(col)].GetValue(i);
        const int64_t x = by_date ? v.AsInt64() * 100 : Cents(v);
        if (v.is_null() || x < r.lo * 100 || x >= r.hi * 100) {
          return "row outside the filter range: " + v.ToString();
        }
      }
      return "";
    }
    case RequestKind::kPagingItem: {
      const size_t item = static_cast<size_t>(r.item);
      if (vdm::NormalizeChunk(c, true) == exp.item_ordered[item] ||
          vdm::NormalizeChunk(c, false) == exp.item_unordered[item]) {
        return "";
      }
      return "page differs from the reference answer";
    }
  }
  return "unknown request kind";
}

// --- reads -----------------------------------------------------------------

/// Outcome of a stretch of reads.
struct ReadLog {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // open loop only
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Last completion minus the end of the schedule (open loop only).
  double drain_ms = -1e9;
  std::vector<std::string> errors;

  void Merge(const ReadLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    drain_ms = std::max(drain_ms, o.drain_ms);
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

Result<Chunk> Send(VdmClient* client, uint32_t stmt, const Request& r) {
  return r.kind == RequestKind::kPagingItem
             ? client->Execute(stmt, {}, r.limit, r.offset)
             : client->Query(r.sql);
}

void Record(const Request& r, const Result<Chunk>& result, double ms,
            const Expectations& exp, ReadLog* log) {
  ++log->attempted;
  if (!result.ok()) {
    ++log->failed;
    return;
  }
  log->latency_ms.push_back(ms);
  std::string wrong = CheckAnswer(r, *result, exp);
  if (!wrong.empty()) log->errors.push_back(wrong + ": " + r.sql);
}

/// Closed loop on the first `n` clients: client c sends requests c, c + n,
/// ... (cycling through the list), each as soon as its previous answer is
/// in, until `end`.
ReadLog ClosedLoop(Fixture* fx, size_t n, const std::vector<Request>& requests,
                   Clock::time_point end, const Expectations& exp) {
  std::vector<ReadLog> logs(n);
  auto conn = [&](size_t c) {
    const uint32_t stmt = fx->paging_stmts.empty() ? 0 : fx->paging_stmts[c];
    for (size_t i = c; Clock::now() < end; i += n) {
      const Request& r = requests[i % requests.size()];
      const Clock::time_point t0 = Clock::now();
      Result<Chunk> result = Send(fx->clients[c].get(), stmt, r);
      Record(r, result, MsBetween(t0, Clock::now()), exp, &logs[c]);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < n; ++c) threads.emplace_back(conn, c);
  conn(0);
  for (std::thread& t : threads) t.join();
  ReadLog all;
  for (const ReadLog& log : logs) all.Merge(log);
  return all;
}

/// Open loop over all clients: request k is due at t0 + k/rate on client
/// k % N, sends requests[first + k], and is timed from when it was due.
ReadLog OpenLoop(Fixture* fx, const std::vector<Request>& requests,
                 size_t first, double rate, double seconds,
                 const Expectations& exp) {
  const size_t n = fx->clients.size();
  std::vector<ReadLog> logs(n);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = After(t0, seconds);
  auto conn = [&](size_t c) {
    ReadLog& log = logs[c];
    Clock::time_point prev_done = t0;
    for (size_t k = c;; k += n) {
      const Clock::time_point due = After(t0, static_cast<double>(k) / rate);
      if (due >= end) break;
      SpinUntil(due);
      const Clock::time_point sent = Clock::now();
      log.late_ms.push_back(MsBetween(std::max(due, prev_done), sent));
      const Request& r = requests[(first + k) % requests.size()];
      Result<Chunk> result = Send(fx->clients[c].get(), fx->paging_stmts[c], r);
      prev_done = Clock::now();
      Record(r, result, MsBetween(due, prev_done), exp, &log);
    }
    log.drain_ms = MsBetween(end, prev_done);
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) threads.emplace_back(conn, c);
  for (std::thread& t : threads) t.join();
  ReadLog all;
  for (const ReadLog& log : logs) all.Merge(log);
  return all;
}

// --- journal writer ----------------------------------------------------------

struct WriterLog {
  std::vector<double> document_ms;
  std::vector<double> late_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

/// Open-loop writer: op j is due at t0 + (j - first)/rate. Returns the
/// index of the first op not attempted. `acked[j]` records which ops the
/// server acknowledged.
size_t RunWriter(VdmClient* client, const std::vector<WriteOp>& ops,
                 size_t first, Clock::time_point end, Tracer* tracer,
                 std::vector<bool>* acked, WriterLog* log) {
  const Clock::time_point t0 = Clock::now();
  Clock::time_point prev_done = t0;
  size_t j = first;
  for (; j < ops.size(); ++j) {
    const Clock::time_point due =
        After(t0, static_cast<double>(j - first) / kDocumentsPerSecond);
    if (due >= end) break;
    const WriteOp& op = ops[j];
    if (op.update && !(*acked)[op.target_op]) continue;
    // 20 ms apart: sleep, and spin only for the last 2 ms.
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
    SpinUntil(due);
    const Clock::time_point sent = Clock::now();
    log->late_ms.push_back(MsBetween(std::max(due, prev_done), sent));
    ++log->attempted;
    if (op.update) {
      Result<Chunk> r = client->Query(op.statements[0]);
      prev_done = Clock::now();
      if (!r.ok()) {
        ++log->failed;
      } else if (r->NumRows() != 1 || r->columns[0].GetValue(0).AsInt64() != 1) {
        log->errors.push_back("update of an acknowledged line changed " +
                              r->ToString() + " rows: " + op.statements[0]);
      } else {
        (*acked)[j] = true;
      }
      continue;
    }
    const int root = tracer ? tracer->Begin("document", -1, j) : -1;
    auto step = [&](const char* name, auto&& call) {
      const int span = tracer ? tracer->Begin(name, root, j) : -1;
      Status st = call();
      if (tracer) tracer->End(span);
      return st;
    };
    Status st = step("txn.begin", [&] { return client->Begin(); });
    for (size_t l = 0; st.ok() && l < op.statements.size(); ++l) {
      st = step("txn.insert",
                [&] { return client->Query(op.statements[l]).status(); });
    }
    if (st.ok()) st = step("txn.commit", [&] { return client->Commit(); });
    prev_done = Clock::now();
    if (tracer) tracer->End(root);
    if (st.ok()) {
      (*acked)[j] = true;
      log->document_ms.push_back(MsBetween(due, prev_done));
    } else {
      ++log->failed;
      // A failed COMMIT has already rolled back; a failed INSERT leaves the
      // transaction open.
      (void)client->Rollback();
    }
  }
  return j;
}

/// Every acknowledged document is present exactly once with its amounts,
/// every failed one is absent, and every acknowledged update is visible.
void CheckJournal(Database* db, const std::vector<WriteOp>& ops,
                  const std::vector<bool>& acked,
                  std::vector<std::string>* errors) {
  if (ops.empty()) return;
  Result<Chunk> rows = db->Query(StrFormat(
      "select belnr, docln, hsl, kostl from acdoca where belnr >= %lld",
      static_cast<long long>(ops[0].belnr)));
  if (!rows.ok()) {
    errors->push_back("journal check query failed: " +
                      rows.status().ToString());
    return;
  }
  // (belnr, docln) -> (cents, kostl, copies)
  std::map<std::pair<int64_t, int64_t>, std::tuple<int64_t, int64_t, int>>
      seen;
  for (size_t i = 0; i < rows->NumRows(); ++i) {
    auto& slot = seen[{rows->columns[0].GetValue(i).AsInt64(),
                       rows->columns[1].GetValue(i).AsInt64()}];
    slot = {Cents(rows->columns[2].GetValue(i)),
            rows->columns[3].GetValue(i).AsInt64(), std::get<2>(slot) + 1};
  }
  std::map<std::pair<int64_t, int64_t>, int64_t> kostl;
  size_t expected_lines = 0;
  for (size_t j = 0; j < ops.size(); ++j) {
    const WriteOp& op = ops[j];
    if (op.update) {
      if (acked[j]) kostl[{op.belnr, op.docln}] = op.kostl;
      continue;
    }
    for (size_t l = 0; l < op.amounts_cents.size(); ++l) {
      auto it = seen.find({op.belnr, static_cast<int64_t>(l) + 1});
      if (!acked[j]) {
        if (it != seen.end()) {
          errors->push_back(StrFormat(
              "document %lld was not acknowledged but is present",
              static_cast<long long>(op.belnr)));
          break;
        }
        continue;
      }
      ++expected_lines;
      if (it == seen.end() || std::get<2>(it->second) != 1 ||
          std::get<0>(it->second) != op.amounts_cents[l]) {
        errors->push_back(StrFormat(
            "acknowledged document %lld line %zu is missing, duplicated or "
            "changed",
            static_cast<long long>(op.belnr), l + 1));
        break;
      }
    }
  }
  if (seen.size() != expected_lines) {
    errors->push_back(StrFormat("%zu journal lines present, %zu acknowledged",
                                seen.size(), expected_lines));
  }
  for (const auto& [key, value] : kostl) {
    auto it = seen.find(key);
    if (it == seen.end() || std::get<1>(it->second) != value) {
      errors->push_back(StrFormat(
          "acknowledged update of document %lld line %lld is not visible",
          static_cast<long long>(key.first),
          static_cast<long long>(key.second)));
    }
  }
}

// --- traced replay -----------------------------------------------------------

/// Per-layer totals over the traced reads (means are taken at the end).
struct TraceTotals {
  int64_t reads = 0;
  double result_bytes = 0;
  double result_rows = 0;
  double rebind_ns = 0;
  double joins_raw = 0;
  double joins_optimized = 0;
  double delta_rows = 0;
  ExecMetrics exec;
  PlanCacheStats cache;
  std::vector<double> roundtrip_ms;
  /// Plan shapes of statements replayed on the cached path.
  std::map<std::string, std::pair<size_t, size_t>> joins_by_sql;
};

void AddMetrics(const ExecMetrics& m, ExecMetrics* into) {
  into->rows_scanned += m.rows_scanned;
  into->rows_decoded += m.rows_decoded;
  into->rows_build_input += m.rows_build_input;
  into->rows_probe_input += m.rows_probe_input;
  into->rows_aggregated += m.rows_aggregated;
  into->morsels_scanned += m.morsels_scanned;
  into->peak_hash_table_entries += m.peak_hash_table_entries;
  into->peak_memory_bytes += m.peak_memory_bytes;
  into->limit_early_exits += m.limit_early_exits;
  into->admission_wait_ns += m.admission_wait_ns;
  for (const auto& [op, ns] : m.op_wall_ns) into->op_wall_ns[op] += ns;
}

void AddCacheDelta(const PlanCacheStats& before, const PlanCacheStats& after,
                   PlanCacheStats* into) {
  into->hits += after.hits - before.hits;
  into->misses += after.misses - before.misses;
  into->invalidations += after.invalidations - before.invalidations;
  into->evictions += after.evictions - before.evictions;
}

/// Lays QueryTiming's phases out as child spans from `start`.
void TimingSpans(Tracer* tracer, int parent, uint64_t id, int64_t start,
                 const QueryTiming& t) {
  const std::pair<const char*, int64_t> phases[] = {
      {"sql.parameterize", t.parameterize_ns},
      {"sql.parse", t.parse_ns},
      {"sql.bind", t.bind_ns},
      {"optimizer.optimize", t.optimize_ns},
      {"engine.rebind", t.rebind_ns},
      {"exec.execute", t.execute_ns}};
  for (auto [name, ns] : phases) {
    if (ns <= 0) continue;
    tracer->Add(name, parent, id, start, start + ns);
    start += ns;
  }
}

/// Runs `step` inside a span named `name`.
template <typename F>
auto Spanned(Tracer* tracer, const char* name, int parent, uint64_t id,
             F&& step) {
  const int span = tracer->Begin(name, parent, id);
  auto out = step();
  tracer->End(span);
  return out;
}

/// One traced read: the served round trip, then an in-process replay of
/// the same request along the path the server took. A served plan-cache
/// hit is replayed through the same Database entry point (its QueryTiming
/// gives the phases); a miss is replayed through the public compile
/// pipeline — ParameterizeStatement, ParseStatement, Binder::BindSelect,
/// Database::OptimizePlan, Database::ExecutePlan — one span each.
void TracedRead(Fixture* fx, const Request& r, uint64_t id, Tracer* tracer,
                const Expectations& exp, TraceTotals* tt, ReadLog* log) {
  Database& db = *fx->db;
  VdmClient* client = fx->clients[0].get();
  const uint32_t stmt = fx->paging_stmts.empty() ? 0 : fx->paging_stmts[0];
  const vdm::Table* acdoca = db.storage().FindTable("acdoca");
  if (acdoca != nullptr) tt->delta_rows += acdoca->NumDeltaRows();

  const int root = tracer->Begin("request", -1, id);
  const PlanCacheStats before = db.plan_cache_stats();
  const int served_span = tracer->Begin("server.roundtrip", root, id);
  const int64_t served_start = tracer->Now();
  Result<Chunk> served = Send(client, stmt, r);
  const int64_t served_ns = tracer->Now() - served_start;
  tracer->End(served_span);
  AddCacheDelta(before, db.plan_cache_stats(), &tt->cache);
  const bool hit = client->last_cache_hit();
  if (!served.ok()) {
    tracer->End(root);
    Record(r, served, static_cast<double>(served_ns) / 1e6, exp, log);
    return;
  }

  ExecMetrics m;
  QueryTiming timing;
  Result<Chunk> replay = Status::Internal("not replayed");
  const int engine = tracer->Begin("engine.query", root, id);
  const int64_t engine_start = tracer->Now();
  if (r.kind == RequestKind::kPagingItem || hit) {
    replay = r.kind == RequestKind::kPagingItem
                 ? db.ExecutePrepared(*fx->prepared, {}, r.limit, r.offset,
                                      fx->limits, &m, &timing)
                 : db.Query(r.sql, fx->limits, &m, &timing);
    TimingSpans(tracer, engine, id, engine_start, timing);
    tt->rebind_ns += static_cast<double>(timing.rebind_ns);
  } else {
    Result<vdm::ParameterizedStatement> ps =
        Spanned(tracer, "sql.parameterize", engine, id,
                [&] { return vdm::ParameterizeStatement(r.sql); });
    Result<vdm::Statement> parsed = Spanned(
        tracer, "sql.parse", engine, id,
        [&] { return vdm::ParseStatement(r.sql); });
    Result<vdm::PlanRef> bound = Status::Internal("not a SELECT");
    if (ps.ok() && parsed.ok() && parsed->select != nullptr) {
      bound = Spanned(tracer, "sql.bind", engine, id, [&] {
        vdm::Binder binder(&db.catalog());
        return binder.BindSelect(*parsed->select);
      });
    }
    Result<vdm::PlanRef> optimized = Status::Internal("not bound");
    if (bound.ok()) {
      optimized = Spanned(tracer, "optimizer.optimize", engine, id,
                          [&] { return db.OptimizePlan(*bound); });
    } else {
      optimized = bound.status();
    }
    if (optimized.ok()) {
      replay = Spanned(tracer, "exec.execute", engine, id, [&] {
        // Read the latest published commit, as the governed path does.
        vdm::QueryContext ctx;
        ctx.set_snapshot(vdm::TxnSnapshot{db.txn_manager().clock(), 0});
        return db.ExecutePlan(*optimized, &m, &ctx);
      });
      tt->joins_raw += static_cast<double>(vdm::ComputePlanStats(*bound).joins);
      tt->joins_optimized +=
          static_cast<double>(vdm::ComputePlanStats(*optimized).joins);
    } else {
      replay = optimized.status();
    }
  }
  tracer->End(engine);
  tracer->End(root);

  // Answers are checked outside the spans.
  Record(r, served, static_cast<double>(served_ns) / 1e6, exp, log);
  tt->roundtrip_ms.push_back(static_cast<double>(served_ns) / 1e6);
  tt->result_bytes += static_cast<double>(vdm::EncodeResult(0, *served).size());
  if (!replay.ok()) {
    log->errors.push_back("replay failed: " + replay.status().ToString() +
                          ": " + r.sql);
    return;
  }
  std::string wrong = CheckAnswer(r, *replay, exp);
  if (!wrong.empty()) log->errors.push_back("replay " + wrong + ": " + r.sql);
  if (r.kind == RequestKind::kPagingItem || hit) {
    auto [it, fresh] = tt->joins_by_sql.try_emplace(r.sql);
    if (fresh) {
      Result<vdm::PlanRef> raw = db.BindQuery(r.sql);
      Result<vdm::PlanRef> opt = db.PlanQuery(r.sql);
      if (raw.ok() && opt.ok()) {
        it->second = {vdm::ComputePlanStats(*raw).joins,
                      vdm::ComputePlanStats(*opt).joins};
      }
    }
    tt->joins_raw += static_cast<double>(it->second.first);
    tt->joins_optimized += static_cast<double>(it->second.second);
  }
  ++tt->reads;
  tt->result_rows += static_cast<double>(replay->NumRows());
  AddMetrics(m, &tt->exec);
}

/// Traced closed loop over `requests` until `end`.
ReadLog TracedLoop(Fixture* fx, const std::vector<Request>& requests,
                   Clock::time_point end, Tracer* tracer,
                   const Expectations& exp, TraceTotals* tt) {
  ReadLog log;
  for (size_t i = 0; Clock::now() < end; ++i) {
    TracedRead(fx, requests[i % requests.size()], i, tracer, exp, tt, &log);
  }
  return log;
}

/// Per-layer metrics from the spans and totals of the traced replay.
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const TraceTotals& tt,
                                 const vdm::TxnStats& txn) {
  const double reads = std::max<double>(1, static_cast<double>(tt.reads));
  std::map<std::string, double> span_ms;
  double commit_ms = 0;
  double commits = 0;
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.name == "txn.commit") {
      commit_ms += ms;
      ++commits;
    } else if (s.parent >= 0 || s.name == "request") {
      span_ms[s.name] += ms;
    }
  }
  std::map<std::string, double> self_ms;
  for (const Breakdown& b : BreakdownByRoot(spans)) {
    if (b.root != "request") continue;
    for (const auto& [layer, ns] : b.self_ns) {
      self_ms[layer] += static_cast<double>(ns) / 1e6;
    }
  }
  const double lookups =
      static_cast<double>(tt.cache.hits + tt.cache.misses);
  const ExecMetrics& m = tt.exec;
  auto op_ms = [&](const char* op) {
    auto it = m.op_wall_ns.find(op);
    return it == m.op_wall_ns.end()
               ? 0.0
               : static_cast<double>(it->second) / 1e6 / reads;
  };
  double other_op_ms = 0;
  for (const auto& [op, ns] : m.op_wall_ns) {
    if (op == "Scan" || op == "Filter" || op == "Project") {
      other_op_ms += static_cast<double>(ns) / 1e6 / reads;
    }
  }
  auto per_read = [&](double v) { return v / reads; };
  std::vector<Metric> out = {
      {"server.roundtrip_ms", per_read(span_ms["server.roundtrip"]), "ms"},
      {"server.overhead_ms",
       per_read(span_ms["server.roundtrip"] - span_ms["engine.query"]), "ms"},
      {"server.result_bytes", per_read(tt.result_bytes), "bytes"},
      {"engine.query_ms", per_read(span_ms["engine.query"]), "ms"},
      {"engine.admission_wait_ms",
       per_read(static_cast<double>(m.admission_wait_ns) / 1e6), "ms"},
      {"engine.rebind_ms", per_read(tt.rebind_ns / 1e6), "ms"},
      {"plan_cache.hit_rate",
       lookups > 0 ? static_cast<double>(tt.cache.hits) / lookups : 0,
       "ratio"},
      {"plan_cache.lookups", lookups, "count"},
      {"plan_cache.invalidations",
       static_cast<double>(tt.cache.invalidations), "count"},
      {"plan_cache.evictions", static_cast<double>(tt.cache.evictions),
       "count"},
      {"sql.parameterize_ms", per_read(span_ms["sql.parameterize"]), "ms"},
      {"sql.parse_ms", per_read(span_ms["sql.parse"]), "ms"},
      {"sql.bind_ms", per_read(span_ms["sql.bind"]), "ms"},
      {"optimizer.optimize_ms", per_read(span_ms["optimizer.optimize"]),
       "ms"},
      {"optimizer.joins_raw", per_read(tt.joins_raw), "count"},
      {"optimizer.joins_optimized", per_read(tt.joins_optimized), "count"},
      {"exec.execute_ms", per_read(span_ms["exec.execute"]), "ms"},
      {"exec.op.Pipeline_ms", op_ms("Pipeline"), "ms"},
      {"exec.op.Join_ms", op_ms("Join"), "ms"},
      {"exec.op.Aggregate_ms", op_ms("Aggregate"), "ms"},
      {"exec.op.Sort_ms", op_ms("Sort"), "ms"},
      {"exec.op.Limit_ms", op_ms("Limit"), "ms"},
      {"exec.op.UnionAll_ms", op_ms("UnionAll"), "ms"},
      {"exec.op.Distinct_ms", op_ms("Distinct"), "ms"},
      {"exec.op.other_ms", other_op_ms, "ms"},
      {"exec.rows_scanned", per_read(static_cast<double>(m.rows_scanned)),
       "count"},
      {"exec.rows_decoded", per_read(static_cast<double>(m.rows_decoded)),
       "count"},
      {"exec.rows_build_input",
       per_read(static_cast<double>(m.rows_build_input)), "count"},
      {"exec.rows_probe_input",
       per_read(static_cast<double>(m.rows_probe_input)), "count"},
      {"exec.rows_aggregated",
       per_read(static_cast<double>(m.rows_aggregated)), "count"},
      {"exec.peak_hash_entries",
       per_read(static_cast<double>(m.peak_hash_table_entries)), "count"},
      {"exec.peak_memory_bytes",
       per_read(static_cast<double>(m.peak_memory_bytes)), "bytes"},
      {"exec.limit_early_exits",
       per_read(static_cast<double>(m.limit_early_exits)), "count"},
      {"exec.morsels_scanned",
       per_read(static_cast<double>(m.morsels_scanned)), "count"},
      {"exec.rows_per_result",
       static_cast<double>(m.rows_scanned) / std::max(1.0, tt.result_rows),
       "ratio"},
      {"txn.commit_ms", commits > 0 ? commit_ms / commits : 0, "ms"},
      {"txn.commits", static_cast<double>(txn.commits), "count"},
      {"txn.conflicts", static_cast<double>(txn.conflicts), "count"},
      {"txn.retries", static_cast<double>(txn.retries), "count"},
      {"storage.merges", static_cast<double>(txn.merges), "count"},
      {"storage.delta_rows", per_read(tt.delta_rows), "count"},
  };
  for (const char* layer :
       {"request", "server", "engine", "sql", "optimizer", "exec"}) {
    out.push_back({StrFormat("self.%s_ms", layer), per_read(self_ms[layer]),
                   "ms"});
  }
  out.push_back({"trace.wall_ms", per_read(span_ms["request"]), "ms"});
  out.push_back({"trace.requests", static_cast<double>(tt.reads), "count"});
  return out;
}

vdm::TxnStats Delta(const vdm::TxnStats& a, const vdm::TxnStats& b) {
  return {b.commits - a.commits, b.rollbacks - a.rollbacks,
          b.conflicts - a.conflicts, b.retries - a.retries,
          b.merges - a.merges};
}

std::string Fmt(double v) { return StrFormat("%.6g", v); }

}  // namespace

Result<RunReport> RunWorkload(const RunOptions& options) {
  const Workload w = options.workload;
  RunReport report;
  auto fail = [&](const std::vector<std::string>& errors) {
    for (const std::string& e : errors) {
      report.correct = false;
      report.errors.push_back(e);
    }
  };

  // --- set-up, timed kSetups times; the last fixture serves the run. -----
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    VDM_ASSIGN_OR_RETURN(fx, SetUp(w));
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  Database& db = *fx->db;

  // --- reference answers, cross-checked against kNone. ---------------------
  Expectations exp;
  std::vector<std::string> errors;
  // Enough distinct requests that the closed loops never cycle; the
  // paging list cycles over its 48 items anyway.
  const size_t reads_needed =
      w == Workload::kPagingServe
          ? 4800
          : static_cast<size_t>(options.seconds * 100) + 64;
  std::vector<Request> requests;
  if (w == Workload::kPagingServe) {
    requests = PagingRequests(options.seed, reads_needed);
    std::vector<std::string> sqls;
    for (const Request& item : PagingItems()) sqls.push_back(item.sql);
    VDM_ASSIGN_OR_RETURN(std::vector<Chunk> answers,
                         CrossCheck(&db, sqls, options.plant_wrong_row,
                                    &errors));
    for (const Chunk& c : answers) {
      exp.item_ordered.push_back(vdm::NormalizeChunk(c, true));
      exp.item_unordered.push_back(vdm::NormalizeChunk(c, false));
    }
  } else {
    std::vector<std::string> sqls = {kCompanyTotalsSql};
    if (w == Workload::kVdmAdhoc) {
      requests = AdhocRequests(options.seed, reads_needed);
      sqls.push_back(
          "select budat, count(*) as n from journalentryitembrowser "
          "group by budat");
      sqls.push_back("select hsl from journalentryitembrowser");
      // A seeded sample of distinct requests the run is sure to send: one
      // aggregate, one documenttotal page and one range query among the
      // first 24.
      vdm::Rng rng(options.seed);
      for (size_t slot : {size_t{0}, size_t{4}, size_t{5}}) {
        sqls.push_back(requests[6 * static_cast<size_t>(rng.Uniform(0, 3)) +
                                slot].sql);
      }
    } else {
      requests = JournalReaderRequests(options.seed, reads_needed);
      exp.counts_fixed = false;
    }
    VDM_ASSIGN_OR_RETURN(std::vector<Chunk> answers,
                         CrossCheck(&db, sqls, options.plant_wrong_row,
                                    &errors));
    ReadCompanyTotals(answers[0], &exp);
    if (w == Workload::kVdmAdhoc) {
      for (size_t i = 0; i < answers[1].NumRows(); ++i) {
        exp.budat_count[answers[1].columns[0].GetValue(i).AsInt64()] =
            answers[1].columns[1].GetValue(i).AsInt64();
      }
      for (size_t i = 0; i < answers[2].NumRows(); ++i) {
        exp.hsl_cents.push_back(Cents(answers[2].columns[0].GetValue(i)));
      }
      std::sort(exp.hsl_cents.begin(), exp.hsl_cents.end());
    }
  }
  fail(errors);
  if (!report.correct) return report;  // no point timing wrong answers

  // Journal state shared by the timed interval and the traced replay.
  std::vector<WriteOp> ops;
  if (w == Workload::kJournalHtap) {
    VDM_ASSIGN_OR_RETURN(Chunk max_belnr,
                         db.Query("select max(belnr) as m from acdoca"));
    const size_t n_ops = static_cast<size_t>(
        kDocumentsPerSecond * options.seconds * 2) + 64;
    ops = JournalWrites(options.seed, n_ops,
                        max_belnr.columns[0].GetValue(0).AsInt64() + 1);
  }
  std::vector<bool> acked(ops.size(), false);
  size_t next_op = 0;
  const vdm::TxnStats txn_start = db.txn_stats();

  // --- timed interval -------------------------------------------------------
  ReadLog reads;
  WriterLog writes;
  double throughput = 0;
  double p99 = 0;
  double sustained = 0;
  auto& prov = report.provenance;
  prov.push_back({"workload", WorkloadName(w)});
  prov.push_back({"seed", std::to_string(options.seed)});
  prov.push_back({"seconds", Fmt(options.seconds)});
  prov.push_back({"exec_threads", "1"});
  if (w == Workload::kPagingServe) {
    prov.push_back({"loop", "closed, then open at fixed rates"});
    prov.push_back({"connections", std::to_string(fx->clients.size())});
    prov.push_back({"data", StrFormat("TPC-H scale %g (orders LEFT JOIN "
                                      "customer, 48 pages)", kTpchScale)});
    // First half: every connection in a closed loop. Its latencies are the
    // end-to-end p50/p95: open-loop sub-millisecond percentiles swing with
    // the host's millisecond stalls of a shared VM.
    const Clock::time_point t0 = Clock::now();
    reads = ClosedLoop(fx.get(), fx->clients.size(), requests,
                       After(t0, options.seconds / 2), exp);
    throughput = static_cast<double>(reads.latency_ms.size()) /
                 (MsBetween(t0, Clock::now()) / 1e3);
    // Second half: the open-loop rate sweep, a sixth of the run per rate.
    const double phase_s = options.seconds / 6;
    size_t first = 0;
    for (size_t i = 0; i < 3; ++i) {
      const double rate = kPagingRates[i];
      ReadLog phase = OpenLoop(fx.get(), requests, first, rate, phase_s, exp);
      first += static_cast<size_t>(rate * phase_s);
      const double phase_p99 = Quantile(phase.latency_ms, 0.99);
      const bool ok = phase.failed == 0 && phase_p99 <= kLatencyLimitMs &&
                      phase.drain_ms <= kLatencyLimitMs;
      if (ok) sustained = rate;
      if (i == 1) p99 = phase_p99;
      prov.push_back({StrFormat("open_rate_%.0f", rate),
                      StrFormat("p50 %.4f ms, p99 %.4f ms, samples %zu, "
                                "drain %.3f ms, late p99 %.4f ms%s",
                                Quantile(phase.latency_ms, 0.5), phase_p99,
                                phase.latency_ms.size(), phase.drain_ms,
                                Quantile(phase.late_ms, 0.99),
                                ok ? "" : " (limit missed)")});
      // Failures and wrong answers of every rate count.
      reads.attempted += phase.attempted;
      reads.failed += phase.failed;
      reads.errors.insert(reads.errors.end(), phase.errors.begin(),
                          phase.errors.end());
      reads.late_ms.insert(reads.late_ms.end(), phase.late_ms.begin(),
                           phase.late_ms.end());
    }
  } else {
    prov.push_back({"loop", w == Workload::kVdmAdhoc
                                ? "closed, 1 connection"
                                : "closed reader + open-loop writer"});
    prov.push_back({"data", StrFormat("S/4 acdoca %lld rows, %lld dimension "
                                      "rows, JEIB view stack",
                                      static_cast<long long>(kAcdocaRows),
                                      static_cast<long long>(kDimensionRows))});
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = After(t0, options.seconds);
    std::thread writer;
    if (w == Workload::kJournalHtap) {
      prov.push_back({"document_rate", Fmt(kDocumentsPerSecond)});
      prov.push_back({"merge_threshold_rows",
                      std::to_string(kMergeThresholdRows)});
      writer = std::thread([&] {
        next_op = RunWriter(fx->clients[1].get(), ops, 0, end, nullptr,
                            &acked, &writes);
      });
    }
    reads = ClosedLoop(fx.get(), 1, requests, end, exp);
    const double elapsed = MsBetween(t0, Clock::now()) / 1e3;
    if (writer.joinable()) writer.join();
    throughput = static_cast<double>(reads.latency_ms.size()) / elapsed;
    p99 = Quantile(reads.latency_ms, 0.99);
  }
  const double p50 = Quantile(reads.latency_ms, 0.5);
  report.attempted = reads.attempted + writes.attempted;
  report.failed = reads.failed + writes.failed;
  fail(reads.errors);
  fail(writes.errors);
  std::vector<double> late = reads.late_ms;
  late.insert(late.end(), writes.late_ms.begin(), writes.late_ms.end());
  const double late_p99 = Quantile(late, 0.99);
  const double gap_ms =
      w == Workload::kPagingServe
          ? 1e3 * static_cast<double>(fx->clients.size()) / kPagingRates[2]
          : 1e3 / kDocumentsPerSecond;
  report.valid = w == Workload::kVdmAdhoc ||
                 late_p99 <= kLateShareOfGap * gap_ms;
  prov.push_back({"read_samples", std::to_string(reads.latency_ms.size())});
  prov.push_back({"read_tail", TailPercentile(reads.latency_ms.size())});
  if (w == Workload::kJournalHtap) {
    prov.push_back({"write_samples",
                    std::to_string(writes.document_ms.size())});
    prov.push_back({"write_tail",
                    TailPercentile(writes.document_ms.size())});
  }
  prov.push_back({"loadgen.late_p99_ms", Fmt(late_p99)});
  if (w != Workload::kVdmAdhoc) {
    prov.push_back({"loadgen.late_limit_ms", Fmt(kLateShareOfGap * gap_ms)});
  }
  prov.push_back({"run_valid", report.valid ? "true" : "false"});

  const double served_frac =
      report.attempted > 0
          ? static_cast<double>(report.attempted - report.failed) /
                static_cast<double>(report.attempted)
          : 0;
  // The same set on every workload (zero where it does not apply), so the
  // traced run reports the same per-layer metrics everywhere.
  report.details = {
      {"p99_ms", p99, "ms"},
      {"failed_frac", 1 - served_frac, "ratio"},
      {"sustained_qps", sustained, "1/s"},
      {"write_p50_ms", Quantile(writes.document_ms, 0.5), "ms"},
      {"write_p99_ms", Quantile(writes.document_ms, 0.99), "ms"},
      {"merges",
       static_cast<double>(db.txn_stats().merges - txn_start.merges),
       "count"},
  };

  if (!options.trace) {
    report.metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"p50_ms", p50, "ms"},
        {"p95_ms", Quantile(reads.latency_ms, 0.95), "ms"},
        {"throughput_qps", throughput, "1/s"},
        {"served_frac", served_frac, "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // --- traced replay: same requests, one at a time, half as long. -------
    Tracer tracer;
    TraceTotals tt;
    const vdm::TxnStats txn_before = db.txn_stats();
    const Clock::time_point end = After(Clock::now(), options.seconds / 2);
    std::thread writer;
    WriterLog traced_writes;
    if (w == Workload::kJournalHtap) {
      writer = std::thread([&] {
        next_op = RunWriter(fx->clients[1].get(), ops, next_op, end, &tracer,
                            &acked, &traced_writes);
      });
    }
    ReadLog traced = TracedLoop(fx.get(), requests, end, &tracer, exp, &tt);
    if (writer.joinable()) writer.join();
    fail(traced.errors);
    fail(traced_writes.errors);
    const std::vector<Span> spans = tracer.spans();
    report.metrics =
        LayerMetrics(spans, tt, Delta(txn_before, db.txn_stats()));
    // Closed loops send the list in order, so the untraced reference is the
    // timed interval's latency of the same first requests.
    std::vector<double> untraced = reads.latency_ms;
    if (w != Workload::kPagingServe &&
        untraced.size() > tt.roundtrip_ms.size()) {
      untraced.resize(tt.roundtrip_ms.size());
    }
    report.metrics.push_back({"trace.overhead_p50_ms",
                              Quantile(tt.roundtrip_ms, 0.5) -
                                  Quantile(untraced, 0.5),
                              "ms"});
    report.metrics.push_back({"loadgen.late_p99_ms", late_p99, "ms"});
    for (const Metric& d : report.details) {
      report.metrics.push_back({"run." + d.name, d.value, d.unit});
    }
    if (!options.trace_out.empty()) {
      VDM_RETURN_NOT_OK(WriteSpans(spans, options.trace_out));
      prov.push_back({"trace_out", options.trace_out});
    }
    prov.push_back({"traced_requests", std::to_string(tt.reads)});
  }

  // --- invariants after the run ---------------------------------------------
  if (w == Workload::kJournalHtap) {
    std::vector<std::string> journal_errors;
    CheckJournal(&db, ops, acked, &journal_errors);
    Result<Chunk> totals = db.Query(kCompanyTotalsSql);
    Expectations after;
    if (!totals.ok()) {
      journal_errors.push_back("final balance query failed");
    } else {
      ReadCompanyTotals(*totals, &after);
      if (after.sum_cents != exp.sum_cents) {
        journal_errors.push_back("journal is unbalanced after the run");
      }
    }
    fail(journal_errors);
  }
  return report;
}

}  // namespace htapbench
