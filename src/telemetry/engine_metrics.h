#ifndef NESTRA_TELEMETRY_ENGINE_METRICS_H_
#define NESTRA_TELEMETRY_ENGINE_METRICS_H_

#include "telemetry/metrics.h"

namespace nestra {
namespace telemetry {

/// Number of QueryPhase values (exec/operator_stats.h). The phase-labelled
/// families below are indexed by static_cast<int>(QueryPhase); the label
/// strings mirror QueryPhaseLabel() (telemetry sits below exec in the link
/// order, so the labels are duplicated here and pinned by a test).
constexpr int kNumPhases = 5;
extern const char* const kPhaseLabels[kNumPhases];

/// \brief Pre-registered handles for every process-lifetime metric the
/// engine feeds, so hot paths pay one pointer indirection instead of a
/// registry lookup. Obtain via Metrics(); handles live forever.
///
/// `deterministic` metrics (see MetricsRegistry) carry counts that are
/// bit-identical across num_threads for the same query sequence; timing-,
/// pool- and batch-shaped metrics are not.
struct EngineMetrics {
  // Query lifecycle (executor).
  Counter* queries_total;             // det
  Counter* query_errors_total;        // det
  Counter* rows_out_total;            // det
  Counter* intermediate_rows_total;   // det
  Counter* plans_verified_total;      // det
  Counter* verify_failures_total;     // det
  Counter* pipelined_queries_total;   // det
  Counter* pipeline_tasks_total;      // det
  Counter* mem_limit_exceeded_total;  // det
  Histogram* query_ms;                // latency distribution
  Histogram* query_peak_mem_bytes;    // det (logical bytes, see
                                      // common/memory_tracker.h)

  // Statement lifecycle phases (SQL entry points + the server session
  // layer). Prepared-statement re-execution must leave parsed/bound/
  // prepared flat while prepared_executions_total grows — the observable
  // proof that EXECUTE skips parse+plan+verify.
  Counter* statements_parsed_total;    // det
  Counter* statements_bound_total;     // det
  Counter* statements_prepared_total;  // det
  Counter* prepared_executions_total;  // det

  // Per-phase stage accounting (§5.2 split), fed by StageTimer.
  Counter* phase_rows_total[kNumPhases];     // det
  Counter* phase_stages_total[kNumPhases];   // det
  Counter* phase_seconds_total[kNumPhases];  // wall time, non-det
  Gauge* nest_groups_peak;                   // det (max groups per nest)

  // IoSim page accounting (executor-sampled deltas). Totals are exact under
  // concurrency (relaxed atomics, every access charged once).
  Counter* io_hits_total;           // det
  Counter* io_seq_misses_total;     // det
  Counter* io_random_misses_total;  // det
  Counter* io_sim_millis_total;     // simulated latency, non-det (fp order)

  // Zone-map pruning on base scans (cost_based planner). Granule counts are
  // decided from load-time stats, so they are identical across engines and
  // thread counts for the same query sequence.
  Counter* zone_granules_scanned_total;  // det
  Counter* zone_granules_pruned_total;   // det

  // Shared thread pool (executor-sampled deltas of GlobalPoolStats).
  Counter* pool_parallel_loops_total;  // non-det (depends on num_threads)
  Counter* pool_tasks_total;           // non-det
  Counter* pool_wait_seconds_total;    // non-det

  // Operator-tree roll-ups (flushed per stage from OperatorStats).
  Counter* batches_total;          // non-det (batch shape)
  Counter* adapter_batches_total;  // non-det
  Counter* join_build_rows_total;  // non-det (fused scan paths skip trees)
  Counter* join_probe_rows_total;  // non-det
  Counter* sort_rows_total;        // non-det
};

/// The lazily-registered global handles.
const EngineMetrics& Metrics();

}  // namespace telemetry
}  // namespace nestra

#endif  // NESTRA_TELEMETRY_ENGINE_METRICS_H_
