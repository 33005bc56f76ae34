#ifndef NESTRA_TELEMETRY_METRICS_H_
#define NESTRA_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nestra {
namespace telemetry {

/// \brief Process-wide metrics: monotonic counters, gauges, and fixed-bucket
/// latency histograms, exposed as Prometheus text and JSON.
///
/// Design constraints, in order:
///
///  * **Lock-cheap writes.** A counter update is one relaxed fetch_add on a
///    cache-line-padded shard picked by a thread-local index, so concurrent
///    workers never contend on the same line. Readers merge the shards on
///    snapshot — snapshots are rare, updates are not.
///  * **Off means off.** The whole registry sits behind one process-wide
///    enable flag (a relaxed atomic bool). Disabled, every update is a
///    single load-and-branch; no clocks are read anywhere on behalf of
///    metrics (stage wall-time feeds reuse timestamps their callers already
///    take for other reasons).
///  * **Deterministic counters.** Metrics register with a `deterministic`
///    flag: `true` promises the merged value is identical across
///    `num_threads` settings for the same query sequence (rows, queries,
///    IoSim totals). Timings, pool activity
///    and batch counts are declared `false`. Tests snapshot only the
///    deterministic subset (DeterministicValues) and compare bit-for-bit.
///
/// This library depends only on the standard library so any layer —
/// including common/ (thread pool) — can feed it without a link cycle.
class MetricsRegistry;

/// True when the registry accepts updates. One relaxed atomic load.
bool MetricsEnabled();

/// Turns the registry on or off process-wide. Also turned on implicitly
/// when an at-exit dump is requested via NESTRA_METRICS_JSON /
/// NESTRA_METRICS_PROM (see MetricsRegistry::Global).
void SetMetricsEnabled(bool enabled);

namespace internal {

constexpr int kMetricShards = 16;

/// One cache line per shard; every mutation is a relaxed RMW on the shard
/// owned by the calling thread's slot.
struct alignas(64) MetricShard {
  std::atomic<double> value{0};
};

/// Stable per-thread shard slot in [0, kMetricShards).
int ThisThreadShard();

}  // namespace internal

/// Monotonic counter. Add() is wait-free and contention-free across
/// threads; Value() merges the shards (not linearizable with respect to
/// concurrent Add — callers snapshot quiescent points).
class Counter {
 public:
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    shards_[internal::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  double Value() const;

  /// Test-only: zeroes every shard (callers quiesce writers first).
  void ResetValue();

 private:
  internal::MetricShard shards_[internal::kMetricShards];
};

/// Point-in-time value. Set/UpdateMax are lock-free; UpdateMax keeps the
/// largest value ever observed (used for peak group counts).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void UpdateMax(double value);

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void ResetValue() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: cumulative `le` buckets
/// plus +Inf, with _sum and _count). Observe() is two relaxed RMWs plus a
/// bucket increment on this thread's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Per-bucket cumulative counts, merged; last entry is the +Inf bucket
  /// (== Count()).
  std::vector<int64_t> CumulativeCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }
  double Sum() const;
  int64_t Count() const;

  void ResetValue();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<int64_t>> buckets;  // bounds_.size() + 1
    std::atomic<double> sum{0};
  };

  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::vector<Shard> shards_;
};

/// \brief Registration-ordered metric registry with a process-global
/// instance. Get*() registers on first use and returns the same object for
/// the same (name, labels) after that; returned pointers live for the
/// registry's lifetime, so hot paths cache them.
class MetricsRegistry {
 public:
  /// The process-wide registry. First access also reads the at-exit dump
  /// environment: NESTRA_METRICS_JSON / NESTRA_METRICS_PROM name files that
  /// receive DumpMetricsJson / DumpMetricsPrometheus when the process
  /// exits, and their presence enables the registry.
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `labels` is either empty or a pre-rendered Prometheus label set like
  /// `phase="nest"` (the registry does not parse it). `deterministic`
  /// declares the cross-thread/cross-engine bit-identity contract above.
  Counter* GetCounter(const std::string& name, const std::string& labels,
                      const std::string& help, bool deterministic);
  Gauge* GetGauge(const std::string& name, const std::string& labels,
                  const std::string& help, bool deterministic);
  Histogram* GetHistogram(const std::string& name, const std::string& labels,
                          const std::string& help,
                          std::vector<double> bounds);

  /// Prometheus text exposition (# HELP / # TYPE, _bucket/_sum/_count for
  /// histograms).
  std::string ToPrometheusText() const;

  /// JSON object, schema "nestra-metrics-v1".
  std::string ToJson() const;

  /// Sample name (`name{labels}`) -> merged value for every metric
  /// registered `deterministic` (counters and gauges). The unit of the
  /// telemetry determinism tests.
  std::map<std::string, double> DeterministicValues() const;

  /// Test-only: zeroes every metric's value (registrations survive).
  void ResetValues();

 private:
  struct Entry;
  Entry* FindOrCreate(const std::string& name, const std::string& labels,
                      const std::string& help, int kind, bool deterministic,
                      std::vector<double> bounds);

  mutable std::mutex mu_;  // guards registration and iteration, not updates
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Shorthands for the global registry's expositions.
std::string DumpMetricsPrometheus();
std::string DumpMetricsJson();

/// Renders one label pair `key="value"`, escaping the value per the
/// Prometheus text exposition format (backslash, double quote, and newline
/// become \\, \", and \n). Use for any label value that is not a
/// compile-time literal — the registry stores label sets pre-rendered and
/// never re-escapes them.
std::string PrometheusLabel(const std::string& key, const std::string& value);

}  // namespace telemetry
}  // namespace nestra

#endif  // NESTRA_TELEMETRY_METRICS_H_
