// htapbench: the benchmark of the VDM HTAP stack (README.md).
//
//   htapbench --workload vdm_adhoc|paging_serve|journal_htap --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   htapbench --dump-requests --workload W --seed N
//
// --plant-wrong-row corrupts the first expected answer (a self-test of the
// checks: the command must then exit 1).
//
// Prints the run's provenance, the machine fingerprint and every metric
// with its unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of the traced replay.
//
// Exit status: 0 all answers right, 1 a wrong answer or broken invariant
// (the result line says "correct": false), 2 usage or set-up failure (no
// result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "exec/kernels/kernels.h"
#include "requests.h"
#include "workloads.h"

#ifndef HTAPBENCH_BUILD_TYPE
#define HTAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using htapbench::Metric;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: htapbench --workload vdm_adhoc|paging_serve|"
               "journal_htap --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--dump-requests] [--plant-wrong-row]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  htapbench::RunOptions options;
  bool have_workload = false;
  bool dump_requests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--dump-requests") {
      dump_requests = true;
    } else if (arg == "--plant-wrong-row") {
      options.plant_wrong_row = true;
    } else if (value == nullptr) {
      return Usage();
    } else {
      ++i;
      char* end = nullptr;
      if (arg == "--workload") {
        have_workload = htapbench::ParseWorkload(value, &options.workload);
        if (!have_workload) return Usage();
      } else if (arg == "--seed") {
        options.seed = std::strtoull(value, &end, 10);
        if (*end != '\0') return Usage();
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(value, &end);
        if (*end != '\0' || !(options.seconds > 0) ||
            options.seconds > 3600) {
          return Usage();
        }
      } else if (arg == "--trace") {
        const std::string v = value;
        if (v != "0" && v != "1") return Usage();
        options.trace = v == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return Usage();
      }
    }
  }
  if (!have_workload) return Usage();
  if (dump_requests) {
    std::fputs(htapbench::RequestListText(options.workload, options.seed,
                                          /*reads=*/120, /*writes=*/40,
                                          /*first_belnr=*/1000000)
                   .c_str(),
               stdout);
    return 0;
  }

  vdm::Result<htapbench::RunReport> run = htapbench::RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "htapbench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const htapbench::RunReport& report = *run;

  std::printf("htapbench %s seed=%llu trace=%d\n",
              htapbench::WorkloadName(options.workload),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const auto& [key, value] : report.provenance) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("  machine: nproc %u, cpu %s, simd %s, build %s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              vdm::kernels::SimdEnabled()
                  ? "avx2"
                  : (vdm::kernels::SimdCompiled() ? "scalar (avx2 off)"
                                                  : "scalar"),
              HTAPBENCH_BUILD_TYPE);
  PrintMetrics(options.trace ? "per-layer metrics (traced replay)"
                             : "end-to-end metrics",
               report.metrics);
  PrintMetrics("workload details", report.details);
  if (!report.valid) {
    std::printf("  RUN INVALID: the load generator fell behind schedule\n");
  }
  for (const std::string& e : report.errors) {
    std::printf("  WRONG: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + JsonEscape(m.name) + "\": {\"value\": " +
            value + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
