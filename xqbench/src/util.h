// Small shared helpers of the benchmark program: the clock, order
// statistics, and the single place that selects the execution lane.
#ifndef XQBENCH_UTIL_H_
#define XQBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xqbench {

/// Seconds on the monotonic clock (arbitrary epoch).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Geometric mean of positive values; 0 when empty.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The one place the benchmark picks how a plan runs: the columnar
/// executors, one worker. Every knob is set only while the options type
/// still has it, so removing a knob from the library leaves the benchmark
/// compiling and measuring the lane that remains.
template <typename Options>
  requires requires(Options o) { o.threads; } ||
           requires(Options o) { o.exec_threads; }
Options& SerialColumnar(Options& options) {
  if constexpr (requires { options.use_columnar; }) {
    options.use_columnar = true;
  }
  if constexpr (requires { options.threads; }) options.threads = 1;
  if constexpr (requires { options.exec_threads; }) {
    options.exec_threads = 1;
  }
  return options;
}

}  // namespace xqbench

#endif  // XQBENCH_UTIL_H_
