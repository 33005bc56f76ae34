#ifndef NESTRA_TELEMETRY_SLOW_QUERY_H_
#define NESTRA_TELEMETRY_SLOW_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>

namespace nestra {
namespace telemetry {

/// \brief One slow-query observation, emitted by the executor when a query's
/// wall time exceeds NraOptions::slow_query_ms.
struct SlowQueryRecord {
  std::string sql;
  double total_ms = 0;
  double join_ms = 0;         ///< unnest-join phase (NraStats::join_seconds)
  double nest_select_ms = 0;  ///< nest + linking-selection phase
  int64_t output_rows = 0;
  /// Deterministic peak accounted bytes (NraStats::peak_mem_bytes); 0 when
  /// the query failed before any stage folded.
  int64_t peak_mem_bytes = 0;
  int num_threads = 1;
  bool ok = true;  ///< false when the query errored after the threshold
  /// Session label ("s3") when the query ran through a server Session;
  /// empty for direct library callers (then the JSON omits the field, so
  /// pre-session log consumers see byte-identical lines).
  std::string session;
};

/// The record as one line of structured JSON (no trailing newline):
/// {"event":"slow_query","session":...,"sql":...,"total_ms":...,
///  "join_ms":...,"nest_select_ms":...,"rows":...,"peak_mem_bytes":...,
///  "threads":...,"ok":true}
/// `session` appears only when set; every other field is always present.
/// The line schema is documented for external consumers in bench/README.md
/// and pinned by tests/telemetry_test.cc.
std::string SlowQueryJsonLine(const SlowQueryRecord& record);

/// Routes the record to the configured sink and bumps the
/// nestra_slow_queries_total counter (when metrics are enabled).
void LogSlowQuery(const SlowQueryRecord& record);

/// Replaces the sink the JSON lines go to. An empty function restores the
/// default: append to the file named by NESTRA_SLOW_QUERY_LOG, else stderr.
void SetSlowQuerySink(std::function<void(const std::string& json_line)> sink);

}  // namespace telemetry
}  // namespace nestra

#endif  // NESTRA_TELEMETRY_SLOW_QUERY_H_
