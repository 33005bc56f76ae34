// Small numeric helpers shared by the workloads and the result printer.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The q-quantile (0..1) with linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Shortest text that reads back as exactly `v` (JSON-safe: non-finite
/// values print as 0).
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
