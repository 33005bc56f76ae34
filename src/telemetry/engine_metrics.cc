#include "telemetry/engine_metrics.h"

#include <string>
#include <vector>

namespace nestra {
namespace telemetry {

const char* const kPhaseLabels[kNumPhases] = {
    "unattributed", "unnest-join", "nest", "linking-selection",
    "post-processing"};

const EngineMetrics& Metrics() {
  static const EngineMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new EngineMetrics();

    m->queries_total =
        reg.GetCounter("nestra_queries_total", "",
                       "Queries executed successfully", true);
    m->query_errors_total =
        reg.GetCounter("nestra_query_errors_total", "",
                       "Queries that returned an error", true);
    m->rows_out_total =
        reg.GetCounter("nestra_rows_out_total", "",
                       "Result rows returned to callers", true);
    m->intermediate_rows_total = reg.GetCounter(
        "nestra_intermediate_rows_total", "",
        "Peak intermediate (wide join) rows per query, summed", true);
    m->plans_verified_total =
        reg.GetCounter("nestra_plans_verified_total", "",
                       "Plans checked by the static verifier", true);
    m->verify_failures_total =
        reg.GetCounter("nestra_verify_failures_total", "",
                       "Plans the static verifier rejected", true);
    m->pipelined_queries_total = reg.GetCounter(
        "nestra_pipelined_queries_total", "",
        "Queries scheduled through the pipeline stage DAG", true);
    m->pipeline_tasks_total =
        reg.GetCounter("nestra_pipeline_tasks_total", "",
                       "Pipeline DAG tasks executed (or skipped)", true);
    m->statements_parsed_total =
        reg.GetCounter("nestra_statements_parsed_total", "",
                       "SQL statements parsed successfully", true);
    m->statements_bound_total =
        reg.GetCounter("nestra_statements_bound_total", "",
                       "SELECT blocks bound against the catalog", true);
    m->statements_prepared_total =
        reg.GetCounter("nestra_statements_prepared_total", "",
                       "PREPAREs completed (parse+bind+verify paid once)",
                       true);
    m->prepared_executions_total = reg.GetCounter(
        "nestra_prepared_executions_total", "",
        "EXECUTEs of prepared statements (bind values + run only)", true);
    m->mem_limit_exceeded_total = reg.GetCounter(
        "nestra_mem_limit_exceeded_total", "",
        "Queries failed by the max_query_mem soft limit", true);
    m->query_ms = reg.GetHistogram(
        "nestra_query_ms", "", "Query wall time in milliseconds",
        {0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
         10000});
    m->query_peak_mem_bytes = reg.GetHistogram(
        "nestra_query_peak_mem_bytes", "",
        "Deterministic per-query peak accounted bytes",
        {4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
         268435456, 1073741824});

    for (int p = 0; p < kNumPhases; ++p) {
      const std::string label =
          std::string("phase=\"") + kPhaseLabels[p] + "\"";
      m->phase_rows_total[p] = reg.GetCounter(
          "nestra_phase_rows_total", label,
          "Rows produced by executor stages, by paper phase", true);
      m->phase_stages_total[p] = reg.GetCounter(
          "nestra_phase_stages_total", label,
          "Executor stages run, by paper phase", true);
      m->phase_seconds_total[p] = reg.GetCounter(
          "nestra_phase_seconds_total", label,
          "Stage wall time in seconds, by paper phase", false);
    }
    m->nest_groups_peak = reg.GetGauge(
        "nestra_nest_groups_peak", "",
        "Largest group count any nest stage or fused level has produced",
        true);

    m->io_hits_total = reg.GetCounter(
        "nestra_io_hits_total", "", "IoSim buffer-pool page hits", true);
    m->io_seq_misses_total =
        reg.GetCounter("nestra_io_seq_misses_total", "",
                       "IoSim sequential page misses", true);
    m->io_random_misses_total =
        reg.GetCounter("nestra_io_random_misses_total", "",
                       "IoSim random page misses", true);
    m->io_sim_millis_total =
        reg.GetCounter("nestra_io_sim_millis_total", "",
                       "IoSim simulated I/O latency in milliseconds", false);
    m->zone_granules_scanned_total =
        reg.GetCounter("nestra_zone_granules_scanned_total", "",
                       "Base-scan granules actually scanned after zone-map "
                       "pruning", true);
    m->zone_granules_pruned_total =
        reg.GetCounter("nestra_zone_granules_pruned_total", "",
                       "Base-scan granules skipped by zone-map min/max "
                       "pruning", true);

    m->pool_parallel_loops_total =
        reg.GetCounter("nestra_pool_parallel_loops_total", "",
                       "Morsel-parallel loops run on the shared pool", false);
    m->pool_tasks_total =
        reg.GetCounter("nestra_pool_tasks_total", "",
                       "Helper tasks submitted to the shared pool", false);
    m->pool_wait_seconds_total = reg.GetCounter(
        "nestra_pool_wait_seconds_total", "",
        "Seconds callers waited for pool helpers to drain", false);

    m->batches_total =
        reg.GetCounter("nestra_batches_total", "",
                       "Non-empty RowBatches produced by operators", false);
    m->adapter_batches_total = reg.GetCounter(
        "nestra_adapter_batches_total", "",
        "Batches produced by the row-at-a-time adapter", false);
    m->join_build_rows_total =
        reg.GetCounter("nestra_join_build_rows_total", "",
                       "Hash-join build-side rows inserted", false);
    m->join_probe_rows_total =
        reg.GetCounter("nestra_join_probe_rows_total", "",
                       "Join probe rows", false);
    m->sort_rows_total = reg.GetCounter("nestra_sort_rows_total", "",
                                        "Rows physically sorted", false);
    return m;
  }();
  return *metrics;
}

}  // namespace telemetry
}  // namespace nestra
