// The three benchmark workloads over an in-process Server, driven through
// VdmClient over loopback (README.md has the design and the metric map).
#ifndef HTAPBENCH_WORKLOADS_H_
#define HTAPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "requests.h"

namespace htapbench {

struct RunOptions {
  Workload workload = Workload::kVdmAdhoc;
  uint64_t seed = 1;
  /// Length of the timed interval; the traced replay runs half as long.
  double seconds = 20;
  /// Off: report the end-to-end metrics. On: also replay the requests with
  /// spans and report the per-layer metrics.
  bool trace = false;
  /// Where the traced run dumps its spans (JSON lines); empty = no dump.
  std::string trace_out;
  /// Self-test hook: corrupt the first expected answer, so the reference
  /// check must fail.
  bool plant_wrong_row = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  /// False when any answer was wrong or an invariant broke.
  bool correct = true;
  /// Operations of the timed interval, and those that failed or were
  /// refused.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Workload-specific end-to-end numbers printed beside the metrics.
  std::vector<Metric> details;
  /// Loop type, rates, sizes, sample counts: printed with the metrics.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// False when the open-loop generator itself fell behind schedule.
  bool valid = true;
  /// What was wrong, when !correct.
  std::vector<std::string> errors;
};

/// Sets up the workload several times (the last set-up serves the run),
/// computes and cross-checks reference answers, runs the timed interval
/// and, with options.trace, the traced replay. An error Status means the
/// run could not be set up or driven at all.
vdm::Result<RunReport> RunWorkload(const RunOptions& options);

}  // namespace htapbench

#endif  // HTAPBENCH_WORKLOADS_H_
