#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace htapbench {

namespace {

/// Layer of a span: the name up to the first '.', or the whole name.
std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

int64_t Tracer::Now() const { return SteadyNs() - origin_ns_; }

int Tracer::Begin(const std::string& name, int parent, uint64_t request) {
  const int64_t now = Now();
  return Add(name, parent, request, now, now);
}

void Tracer::End(int span) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

int Tracer::Add(const std::string& name, int parent, uint64_t request,
                int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::clamp(a, s.start_ns, s.end_ns);
      b = std::clamp(b, s.start_ns, s.end_ns);
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<Breakdown> BreakdownByRoot(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<int> root_of(spans.size(), -1);
  std::vector<Breakdown> out;
  std::vector<int> slot(spans.size(), -1);
  // Parents are always recorded before their children.
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int root = s.parent < 0 ? static_cast<int>(i)
                                  : root_of[static_cast<size_t>(s.parent)];
    root_of[i] = root;
    if (s.parent < 0) {
      slot[i] = static_cast<int>(out.size());
      out.push_back(Breakdown{s.name, {}});
    }
    out[static_cast<size_t>(slot[static_cast<size_t>(root)])]
        .self_ns[LayerOf(s.name)] += self[i];
  }
  return out;
}

vdm::Status WriteSpans(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return vdm::Status::InvalidArgument("cannot write span file " + path);
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 i, s.parent, static_cast<unsigned long long>(s.request),
                 s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<double>(self[i]) / 1e3);
  }
  if (std::fclose(f) != 0) {
    return vdm::Status::InvalidArgument("cannot write span file " + path);
  }
  return vdm::Status::OK();
}

}  // namespace htapbench
