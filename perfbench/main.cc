// One run of one benchmark workload: set up the fleet, run the timed
// phase, audit the result, and print one JSON line with the simulated
// output digest, the correctness verdict and every metric.
//
//   perfbench_run --workload fleet_writes|fleet_reads|bulk_codec
//                 --seed N [--traced] [--quick] [--trace-out PATH]
//
// perfbench/run.py drives this binary; see perfbench/README.md.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/scenario.h"

namespace {

void PrintJsonString(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload fleet_writes|fleet_reads|"
               "bulk_codec --seed N [--traced] [--quick] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      if (!perfbench::ParseWorkload(argv[++i], &options.workload)) return Usage();
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_value) {
      options.trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      options.traced = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
              "\", \"timed_wall_s\": %.17g, \"probe_ns\": %.17g, "
              "\"failures\": [",
              result.correct ? "true" : "false", result.attempted,
              result.failed, result.digest, result.timed_seconds,
              result.probe_ns_per_access);
  for (size_t i = 0; i < result.failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(result.failures[i]);
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
