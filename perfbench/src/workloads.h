// The benchmark's workloads: set-up, the correctness gate, the timed
// closed-loop clients, and the metrics each run reports.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the timed run (engine defaults, every telemetry sink off) that
  /// reports the end-to-end metrics. true: the traced run that reports the
  /// per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunReport {
  bool correct = true;     // gate passed and no timed result mismatched
  int64_t attempted = 0;   // timed statements
  int64_t failed = 0;      // of those: errors + fingerprint mismatches
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable report lines
  // Provenance of the workload's configuration.
  int num_threads = 0;  // resolved engine thread count
  double scale = 0;     // TpchConfig::scale
  int clients = 1;
  std::vector<Span> spans;  // traced run only (bounded sample)
};

nestra::Result<RunReport> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
