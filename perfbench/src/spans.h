// In-memory span recording for the traced run: one span per public call the
// benchmark makes (client request -> Session::* -> parse -> bind -> verify
// -> execute), with the executor's profile stages attached as children of
// the execute span. Spans stay in memory and are written once at the end.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;     // -1 for a statement's root span
  int64_t statement = 0;   // shared by every span of one statement
  std::string name;        // "client.request", "sql.parse", "nra.stage", ...
  std::string detail;      // template name, stage label, ...
  double start_us = 0;     // microseconds since the log's origin
  double end_us = 0;
  int track = 0;           // client thread

  double duration_us() const { return end_us - start_us; }
};

/// Append-only span log owned by one client thread (not thread-safe). Ids
/// are unique across logs that use distinct `track`s.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int track)
      : origin_(origin), track_(track) {}

  double NowUs() const;
  /// A fresh statement id (spans of one statement share it).
  int64_t NewStatement() { return MakeId(next_statement_++); }

  /// Opens a span starting now; close it with End.
  int64_t Begin(const std::string& name, int64_t parent, int64_t statement,
                const std::string& detail = "");
  void End(int64_t id);
  /// Records an already-closed span.
  int64_t Add(const std::string& name, int64_t parent, int64_t statement,
              double start_us, double end_us, const std::string& detail = "");

  const Span& Get(int64_t id) const;
  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  /// Drops every span recorded after the first `n`; their ids are reused.
  void Truncate(size_t n);

 private:
  int64_t MakeId(int64_t local) const {
    return (static_cast<int64_t>(track_) << 40) | local;
  }

  Clock::time_point origin_;
  int track_;
  int64_t next_statement_ = 0;
  std::vector<Span> spans_;  // indexed by local id
};

/// Checks that every parent exists, shares its child's statement id and
/// contains its child's interval, and that every self time is >= 0. Returns
/// "" when the tree is well formed, else the first violation.
std::string ValidateSpanTree(const std::vector<Span>& spans);

/// Self time of every span: its duration minus the part of that interval
/// its children cover (overlapping children count once). Indexed like
/// `spans`.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace_event JSON (one complete event per
/// span, id/parent/statement in its args) with `meta_json` — a JSON object
/// — under "metadata". Returns false when the file cannot be written.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans,
                    const std::string& meta_json);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
