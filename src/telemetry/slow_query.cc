#include "telemetry/slow_query.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>

#include "telemetry/json_escape.h"
#include "telemetry/metrics.h"

namespace nestra {
namespace telemetry {

namespace {

struct SinkState {
  std::mutex mu;
  std::function<void(const std::string&)> sink;  // empty = default
};

SinkState& State() {
  static SinkState* state = new SinkState();
  return *state;
}

void DefaultSink(const std::string& line) {
  // Serialize whole-line writes: concurrent sessions logging through the
  // append-mode FILE* would otherwise tear lines (fprintf is not atomic for
  // lines longer than the stdio buffer), corrupting the one-JSON-object-
  // per-line contract downstream parsers rely on.
  static std::mutex* write_mu = new std::mutex();
  std::lock_guard<std::mutex> lock(*write_mu);
  const char* path = std::getenv("NESTRA_SLOW_QUERY_LOG");
  if (path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "a");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
      return;
    }
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

std::string SlowQueryJsonLine(const SlowQueryRecord& record) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(3);
  oss << "{\"event\":\"slow_query\",";
  if (!record.session.empty()) {
    oss << "\"session\":\"";
    internal::JsonEscapeTo(record.session, &oss);
    oss << "\",";
  }
  oss << "\"sql\":\"";
  internal::JsonEscapeTo(record.sql, &oss);
  oss << "\",\"total_ms\":" << record.total_ms
      << ",\"join_ms\":" << record.join_ms
      << ",\"nest_select_ms\":" << record.nest_select_ms
      << ",\"rows\":" << record.output_rows
      << ",\"peak_mem_bytes\":" << record.peak_mem_bytes
      << ",\"threads\":" << record.num_threads
      << ",\"ok\":" << (record.ok ? "true" : "false") << "}";
  return oss.str();
}

void LogSlowQuery(const SlowQueryRecord& record) {
  const std::string line = SlowQueryJsonLine(record);
  if (MetricsEnabled()) {
    // Registered lazily: the counter only exists once a slow query fired.
    static Counter* slow_queries = MetricsRegistry::Global().GetCounter(
        "nestra_slow_queries_total", "",
        "Queries whose wall time exceeded NraOptions::slow_query_ms",
        /*deterministic=*/false);
    slow_queries->Add(1);
  }
  SinkState& state = State();
  std::function<void(const std::string&)> sink;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    sink = state.sink;
  }
  if (sink) {
    // Custom sinks get the same one-writer-at-a-time guarantee as the
    // default file sink. A dedicated mutex (not state.mu) keeps a sink that
    // calls SetSlowQuerySink or LogSlowQuery re-entrantly from deadlocking
    // against sink replacement.
    static std::mutex* call_mu = new std::mutex();
    std::lock_guard<std::mutex> call_lock(*call_mu);
    sink(line);
  } else {
    DefaultSink(line);
  }
}

void SetSlowQuerySink(std::function<void(const std::string&)> sink) {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sink = std::move(sink);
}

}  // namespace telemetry
}  // namespace nestra
