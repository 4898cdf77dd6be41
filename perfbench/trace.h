// Spans the benchmark records around its calls into the program's layers.
//
// A span has a name, a start, an end and the span that was open when it
// began. Spans stay in memory; Write() puts them out as JSON when the run
// ends. With tracing off a Tracer records nothing, so the timed run pays
// one branch per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic clock, nanoseconds (CLOCK_MONOTONIC on Linux, the clock
/// Python's time.monotonic_ns reads).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` inside a span named `name` and returns what it returns.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const size_t id = Open(name);
    struct Closer {
      Tracer* tracer;
      size_t id;
      ~Closer() { tracer->Close(id); }
    } closer{this, id};
    return fn();
  }

  size_t Open(const std::string& name);
  void Close(size_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of the direct children of span `id`.
  double ChildMs(size_t id) const;

  /// Writes the spans as a JSON array of {name, start_ns, end_ns, parent}.
  void Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// The q-quantile (0..1) of `values` by nearest rank (0 when empty).
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
