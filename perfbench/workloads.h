// The three workloads of the benchmark. Each runs in one process, reaches
// the program only through its public functions (gsmb::Engine,
// MetaBlockingSession and the layer functions under src/), times its unit
// operation for the requested number of seconds and checks every
// operation's output against the benchmark's own facts.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string data_dir;   ///< the inputs perfbench_gen wrote
  double seconds = 10.0;  ///< how long the timed operations run
  bool trace = false;     ///< per-layer (traced) run instead of end to end
  int64_t start_ns = 0;   ///< monotonic time the process was started at
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

Report RunBatchOneshot(const RunOptions& options);
Report RunStreamSweep(const RunOptions& options);
Report RunServeTrickle(const RunOptions& options);

/// Every per-layer metric a traced run reports, with its unit, in the order
/// BENCHMARK.json lists them. A layer a workload does not call reports 0.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
