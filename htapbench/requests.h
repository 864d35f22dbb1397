// Seeded request lists of the three benchmark workloads.
//
// Everything a workload sends is generated here from the workload seed
// alone, before any connection opens: the same seed yields a byte-identical
// list (RequestListText), and the program under test only ever sees the
// generated SQL. Each read request carries the parameters its answer is
// checked against (see workloads.cc).
#ifndef HTAPBENCH_REQUESTS_H_
#define HTAPBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace htapbench {

enum class Workload { kVdmAdhoc, kPagingServe, kJournalHtap };

const char* WorkloadName(Workload workload);
/// False for an unknown name.
bool ParseWorkload(const std::string& name, Workload* workload);

enum class RequestKind {
  /// JEIB count(*) or sum(hsl) grouped by 1-2 fields, optional company
  /// filter.
  kAggregate,
  /// JEIB 2-8 field projection paged with LIMIT/OFFSET.
  kPage,
  /// JEIB projection with a budat or hsl range filter.
  kRange,
  /// One of the 48 orders-LEFT-JOIN-customer paging items (Fig. 6),
  /// executed through a PREPAREd handle.
  kPagingItem,
};

/// One read request and what its answer is checked against.
struct Request {
  RequestKind kind = RequestKind::kAggregate;
  std::string sql;
  /// Projected column count (kAggregate: group fields + the measure).
  size_t columns = 0;
  /// kAggregate: rbukrs filter value, empty = all companies.
  std::string company;
  /// kAggregate: sum(hsl) as `s` when true, count(*) as `n` otherwise.
  bool sum = false;
  /// kPage: page geometry. kPagingItem: the item's geometry.
  int64_t limit = -1;
  int64_t offset = -1;
  /// kPagingItem: index into PagingItems().
  int item = -1;
  /// kRange: "budat" (days since epoch) or "hsl" (whole currency units);
  /// the filter is lo <= column < hi, and the column is projected.
  std::string range_column;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// One journal_htap writer operation.
struct WriteOp {
  /// false = post a balanced document: BEGIN, one INSERT of all its lines,
  /// COMMIT.
  /// true = one auto-commit single-row UPDATE of a non-amount column.
  bool update = false;
  int64_t belnr = 0;
  std::string rldnr;
  std::string rbukrs;
  int64_t gjahr = 0;
  /// Document: per-line hsl in cents, summing to zero.
  std::vector<int64_t> amounts_cents;
  /// Update: the targeted line of an earlier document of this run
  /// (`target_op` indexes the op list) and the new cost center.
  size_t target_op = 0;
  int64_t docln = 0;
  int64_t kostl = 0;
  /// Document: the INSERT. Update: the UPDATE.
  std::vector<std::string> statements;
};

/// The 48 paging items (limit x 16 pages), in a fixed order.
std::vector<Request> PagingItems();

/// `n` ad-hoc JEIB requests. Kinds rotate in a fixed six-slot cycle
/// (aggregate with a company filter, page, budat range, aggregate over all
/// companies, documenttotal page, hsl range) and page sizes cycle through
/// 10, 100 and 1000, so every seed runs the same mix; the seed picks the
/// fields, measures, filter values and offsets.
std::vector<Request> AdhocRequests(uint64_t seed, size_t n);

/// `n` journal_htap reader requests: the ad-hoc aggregate kind, always
/// sum(hsl) so every answer can be checked for balance, every other one
/// filtered to a company.
std::vector<Request> JournalReaderRequests(uint64_t seed, size_t n);

/// `n` paging_serve requests: seeded rotation over PagingItems().
std::vector<Request> PagingRequests(uint64_t seed, size_t n);

/// `n` writer operations posting documents numbered from `first_belnr`;
/// every eighth operation updates a line of a document posted four
/// operations earlier.
std::vector<WriteOp> JournalWrites(uint64_t seed, size_t n,
                                   int64_t first_belnr);

/// Canonical text of everything the workload would send for this seed
/// (reads, then writes), one line per statement.
std::string RequestListText(Workload workload, uint64_t seed, size_t reads,
                            size_t writes, int64_t first_belnr);

}  // namespace htapbench

#endif  // HTAPBENCH_REQUESTS_H_
