// In-memory spans for the traced run.
//
// The benchmark records one span around each call it makes into a layer's
// public API (server round trip, Database entry points, parser, binder,
// optimizer, executor) and, where a layer is only reachable through
// Database, adds child spans laid out from the QueryTiming that same call
// returned. Span names are "<layer>.<call>"; a root span ("request" for a
// read, "document" for a journal posting) covers one traced operation, and
// its own self time is the benchmark's bookkeeping between calls. Spans
// stay in memory until WriteSpans dumps them when the run ends.
#ifndef HTAPBENCH_TRACE_H_
#define HTAPBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace htapbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  int parent = -1;       // index of the parent span; -1 for a root
  uint64_t request = 0;  // id shared by every span of one traced operation
};

/// Thread-safe span recorder (the journal writer and reader trace
/// concurrently).
class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was created.
  int64_t Now() const;
  /// Opens a span starting now; returns its index.
  int Begin(const std::string& name, int parent, uint64_t request);
  /// Closes a span opened by Begin.
  void End(int span);
  /// Records a span with explicit bounds.
  int Add(const std::string& name, int parent, uint64_t request,
          int64_t start_ns, int64_t end_ns);
  /// Copy of all spans recorded so far.
  std::vector<Span> spans() const;

 private:
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// One traced operation: the name of its root span and the self time of
/// every span under it, summed by layer (they add up to the root's wall
/// time).
struct Breakdown {
  std::string root;
  std::map<std::string, int64_t> self_ns;
};
std::vector<Breakdown> BreakdownByRoot(const std::vector<Span>& spans);

/// Writes one JSON object per span and line: index, parent, request, name,
/// start/end and self time in microseconds.
vdm::Status WriteSpans(const std::vector<Span>& spans,
                       const std::string& path);

}  // namespace htapbench

#endif  // HTAPBENCH_TRACE_H_
