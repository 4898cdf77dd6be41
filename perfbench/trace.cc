#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

size_t Tracer::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void Tracer::Close(size_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::ChildMs(size_t id) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == static_cast<int64_t>(id)) total += span.ms();
  }
  return total;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
