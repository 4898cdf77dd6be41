// The measured process: runs one workload on inputs perfbench_gen wrote and
// prints one JSON line with `correct`, `attempted`, `failed` and `metrics`.
//
//   perfbench_run --workload <name> --data <dir> --seconds <s>
//                 --trace <0|1> --start-ns <monotonic ns> [--trace-out <file>]
//
// `--start-ns` is the monotonic time the launcher read just before starting
// this process, so setup_s covers process start-up too. With --trace 0 the
// metrics are setup_s, op_ms and peak_rss_mb; with --trace 1 they are the
// per-layer metrics of PerLayerMetrics().
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

void PrintReport(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.start_ns = perfbench::NowNs();
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--data") {
      options.data_dir = value;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--start-ns") {
      options.start_ns = std::strtoll(value, nullptr, 10);
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench_run: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || options.data_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <name> --data <dir> "
                 "--seconds <s> --trace <0|1> --start-ns <ns>\n");
    return 2;
  }
  try {
    perfbench::Report report;
    if (workload == "batch-oneshot") {
      report = perfbench::RunBatchOneshot(options);
    } else if (workload == "stream-sweep") {
      report = perfbench::RunStreamSweep(options);
    } else if (workload == "serve-trickle") {
      report = perfbench::RunServeTrickle(options);
    } else {
      std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    if (options.trace) {
      // Exactly the per-layer metrics, in every traced run: a layer the
      // workload does not call reports 0.
      perfbench::Report layers = report;
      layers.metrics.clear();
      for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
        auto it = report.metrics.find(name);
        layers.Set(name, it == report.metrics.end() ? 0.0 : it->second.first,
                   unit);
      }
      report = layers;
    }
    PrintReport(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
