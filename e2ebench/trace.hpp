// Spans and sample statistics for the serving benchmark.
//
// Spans are recorded only in traced runs, only from the benchmark's own
// files (around calls into each layer's public API), kept in memory, and
// written out as JSON lines when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  long parent = -1;  // index into the same recorder; -1 = root
  long long tick = -1;
};

/// Single-threaded span log; one per thread, merged at dump time.
class SpanLog {
 public:
  long open(std::string name, long parent = -1, long long tick = -1) {
    spans_.push_back({std::move(name), Clock::now(), {}, parent, tick});
    return long(spans_.size()) - 1;
  }
  void close(long index) { spans_[std::size_t(index)].end = Clock::now(); }
  /// Duration of a closed span, in milliseconds.
  [[nodiscard]] double millis(long index) const {
    const Span& s = spans_[std::size_t(index)];
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line, times in microseconds since `origin`;
  /// `thread` tags the log and offsets parent indices by `base`.
  void dump(std::ostream& os, Clock::time_point origin, const char* thread,
            long base) const {
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << base + long(i) << ",\"name\":\"" << s.name
         << "\",\"thread\":\"" << thread << "\",\"start_us\":"
         << seconds_between(origin, s.start) * 1e6
         << ",\"end_us\":" << seconds_between(origin, s.end) * 1e6
         << ",\"parent\":" << (s.parent < 0 ? -1 : base + s.parent)
         << ",\"tick\":" << s.tick << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Runs `fn`; when `out` is set, appends its duration in `Unit`s
/// (std::nano, std::micro).
template <typename Unit, typename Fn>
void timed(std::vector<double>* out, Fn&& fn) {
  if (out == nullptr) {
    fn();
    return;
  }
  const auto start = Clock::now();
  fn();
  out->push_back(
      std::chrono::duration<double, Unit>(Clock::now() - start).count());
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Samples strictly above the nearest-rank q-percentile position.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  return n - std::min(n, rank);
}

}  // namespace e2e
