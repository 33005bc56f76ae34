#include "spans.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "telemetry/json_escape.h"

namespace perfbench {

namespace {

constexpr int64_t kLocalMask = (int64_t{1} << 40) - 1;
// Timestamps are doubles of one steady clock; allow for rounding only.
constexpr double kEpsUs = 1e-3;

std::string Escaped(const std::string& s) {
  std::ostringstream oss;
  nestra::telemetry::internal::JsonEscapeTo(s, &oss);
  return oss.str();
}

// Children of every span, as indexes into `spans`.
std::vector<std::vector<size_t>> ChildIndex(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  return children;
}

}  // namespace

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       int64_t statement, const std::string& detail) {
  const double now = NowUs();
  return Add(name, parent, statement, now, now, detail);
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id & kLocalMask)].end_us = NowUs();
}

int64_t SpanLog::Add(const std::string& name, int64_t parent,
                     int64_t statement, double start_us, double end_us,
                     const std::string& detail) {
  Span s;
  s.id = MakeId(static_cast<int64_t>(spans_.size()));
  s.parent = parent;
  s.statement = statement;
  s.name = name;
  s.detail = detail;
  s.start_us = start_us;
  s.end_us = end_us;
  s.track = track_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::Truncate(size_t n) {
  if (n < spans_.size()) spans_.resize(n);
}

const Span& SpanLog::Get(int64_t id) const {
  return spans_[static_cast<size_t>(id & kLocalMask)];
}

std::string ValidateSpanTree(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (!by_id.emplace(s.id, &s).second) {
      return "duplicate span id " + std::to_string(s.id);
    }
  }
  for (const Span& s : spans) {
    if (s.end_us < s.start_us) return "span " + s.name + " ends before start";
    if (s.parent < 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) return "span " + s.name + " has no parent";
    const Span& p = *it->second;
    if (p.statement != s.statement) {
      return "span " + s.name + " and its parent " + p.name +
             " belong to different statements";
    }
    if (s.start_us < p.start_us - kEpsUs || s.end_us > p.end_us + kEpsUs) {
      return "span " + s.name + " lies outside its parent " + p.name;
    }
  }
  const std::vector<double> self = SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < -kEpsUs) return "span " + spans[i].name + " self time < 0";
  }
  return "";
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  const std::vector<std::vector<size_t>> children = ChildIndex(spans);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (size_t c : children[i]) {
      const double lo = std::max(spans[c].start_us, p.start_us);
      const double hi = std::min(spans[c].end_us, p.end_us);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = p.start_us;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = p.duration_us() - covered;
  }
  return self;
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans,
                    const std::string& meta_json) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"metadata\": " << meta_json << ",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track << ",\"name\":\""
        << Escaped(s.name) << "\",\"ts\":" << FormatNumber(s.start_us)
        << ",\"dur\":" << FormatNumber(s.duration_us())
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"statement\":" << s.statement << ",\"detail\":\""
        << Escaped(s.detail) << "\"}}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
