#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <map>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "gate.h"
#include "generators.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "sql/parser.h"
#include "storage/io_sim.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/metrics.h"
#include "tpch/random.h"
#include "tpch/tpch_gen.h"
#include "verify/verifier.h"

namespace perfbench {

using nestra::Catalog;
using nestra::NraExecutor;
using nestra::NraOptions;
using nestra::NraStats;
using nestra::QueryPhase;
using nestra::QueryProfile;
using nestra::Result;
using nestra::Status;
using nestra::Table;

namespace {

// ---------------------------------------------------------------------------
// Workload specs.

struct Spec {
  const char* name;
  double scale;     // TpchConfig::scale
  bool nulls;       // NULLs injected, no NOT NULL declarations
  int clients;      // closed-loop clients (capped at nproc)
  int setup_reps;   // set-ups per run; setup_s is their median
};

constexpr Spec kSpecs[] = {
    {"paper_sf01", 10.0, false, 1, 3},
    {"point_sessions", 0.1, false, 4, 31},
    {"nulls_shapes", 1.0, true, 1, 15},
};

// Narrow instances per point_sessions run, and queries per nulls corpus (a
// multiple of 40 covers every (shape, root operator) pair equally).
constexpr int kPointInstances = 96;
constexpr int kNullsCorpus = 80;
// NULL fraction injected into l_extendedprice and ps_supplycost.
constexpr double kNullFraction = 0.1;
// Spans kept in memory per client for the written trace; self times and
// tree checks cover every statement regardless.
constexpr size_t kMaxKeptSpans = 40000;

nestra::TpchConfig ConfigFor(const Spec& spec) {
  nestra::TpchConfig config;
  config.scale = spec.scale;
  if (spec.nulls) {
    config.null_l_extendedprice = kNullFraction;
    config.null_ps_supplycost = kNullFraction;
  } else {
    config.declare_not_null = true;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Measurements.

// End-to-end samples of one client (merged across clients at the end;
// check_seconds stays per client, for that client's busy time).
struct Samples {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> by_template;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t peak_mem_bytes = 0;
  double check_seconds = 0;  // spent fingerprinting results, not in the engine

  void Merge(const Samples& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    for (const auto& [k, v] : o.by_template) {
      auto& dst = by_template[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    attempted += o.attempted;
    failed += o.failed;
    peak_mem_bytes = std::max(peak_mem_bytes, o.peak_mem_bytes);
  }
};

// Per-layer observations of one client's traced statements.
struct Layers {
  std::vector<double> parse_us, bind_us, verify_us, execute_ms;
  std::vector<double> adhoc_ms, prepared_ms, overhead_us, q_errors;
  double phase_ms[nestra::telemetry::kNumPhases] = {};
  double stages = 0;
  double intermediate_rows = 0;
  int64_t profiled = 0;  // executions with a profile
  std::map<std::string, double> self_us;
  int64_t traced_statements = 0;
  int64_t bad_trees = 0;
  std::string first_bad_tree;
  // Per-template latencies of traced and untraced statements, for
  // trace.overhead_pct.
  std::map<std::string, std::vector<double>> traced_ms, untraced_ms;

  void Merge(const Layers& o) {
    for (auto [dst, src] :
         {std::pair{&parse_us, &o.parse_us}, {&bind_us, &o.bind_us},
          {&verify_us, &o.verify_us}, {&execute_ms, &o.execute_ms},
          {&adhoc_ms, &o.adhoc_ms}, {&prepared_ms, &o.prepared_ms},
          {&overhead_us, &o.overhead_us}, {&q_errors, &o.q_errors}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    for (int i = 0; i < nestra::telemetry::kNumPhases; ++i) {
      phase_ms[i] += o.phase_ms[i];
    }
    stages += o.stages;
    intermediate_rows += o.intermediate_rows;
    profiled += o.profiled;
    for (const auto& [k, v] : o.self_us) self_us[k] += v;
    traced_statements += o.traced_statements;
    bad_trees += o.bad_trees;
    if (first_bad_tree.empty()) first_bad_tree = o.first_bad_tree;
    for (auto [dst, src] : {std::pair{&traced_ms, &o.traced_ms},
                            {&untraced_ms, &o.untraced_ms}}) {
      for (const auto& [k, v] : *src) {
        auto& d = (*dst)[k];
        d.insert(d.end(), v.begin(), v.end());
      }
    }
  }
};

// Engine counters (process-wide metrics registry), sampled around the
// traced part of a run.
struct Counters {
  double queries = 0, rows_out = 0, build = 0, probe = 0, sort = 0;
  double zone_scanned = 0, zone_pruned = 0;
  double io_hits = 0, io_misses = 0, sim_ms = 0;
  double pool_tasks = 0, pool_wait_s = 0;

  static Counters Take() {
    const nestra::telemetry::EngineMetrics& m = nestra::telemetry::Metrics();
    Counters c;
    c.queries = m.queries_total->Value();
    c.rows_out = m.rows_out_total->Value();
    c.build = m.join_build_rows_total->Value();
    c.probe = m.join_probe_rows_total->Value();
    c.sort = m.sort_rows_total->Value();
    c.zone_scanned = m.zone_granules_scanned_total->Value();
    c.zone_pruned = m.zone_granules_pruned_total->Value();
    c.io_hits = m.io_hits_total->Value();
    c.io_misses =
        m.io_seq_misses_total->Value() + m.io_random_misses_total->Value();
    c.sim_ms = m.io_sim_millis_total->Value();
    c.pool_tasks = m.pool_tasks_total->Value();
    c.pool_wait_s = m.pool_wait_seconds_total->Value();
    return c;
  }

  Counters operator-(const Counters& o) const {
    return {queries - o.queries,         rows_out - o.rows_out,
            build - o.build,             probe - o.probe,
            sort - o.sort,               zone_scanned - o.zone_scanned,
            zone_pruned - o.zone_pruned, io_hits - o.io_hits,
            io_misses - o.io_misses,     sim_ms - o.sim_ms,
            pool_tasks - o.pool_tasks,   pool_wait_s - o.pool_wait_s};
  }
};

// Every telemetry consumer the traced run turns on, besides the per-query
// profile: the metrics registry and the IoSim buffer-pool model over the
// workload's base tables. Off again on destruction.
class Telemetry {
 public:
  explicit Telemetry(const Catalog& catalog) {
    for (const std::string& name : catalog.TableNames()) {
      Result<const Table*> t = catalog.GetTable(name);
      if (t.ok()) sim_.RegisterTable(*t);
    }
  }
  ~Telemetry() { Enable(false); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void Enable(bool on) {
    nestra::telemetry::SetMetricsEnabled(on);
    nestra::IoSim::Install(on ? &sim_ : nullptr);
  }

 private:
  nestra::IoSim sim_;
};

double Ms(Clock::time_point start) { return SecondsSince(start) * 1e3; }

// Records one timed execution's outcome and latency.
void Record(const Result<Table>& result, const NraStats& stats,
            const std::string& key, const std::string& tmpl, double ms,
            const OracleGate& gate, Samples* s) {
  ++s->attempted;
  const Clock::time_point t0 = Clock::now();
  const bool ok = result.ok() && gate.Matches(key, *result);
  s->check_seconds += SecondsSince(t0);
  if (!ok) {
    ++s->failed;
    return;
  }
  s->latency_ms.push_back(ms);
  s->by_template[tmpl].push_back(ms);
  s->peak_mem_bytes = std::max(s->peak_mem_bytes, stats.peak_mem_bytes);
}

// Places the profile's stages under the execute span. The profile records
// each stage's duration but not its start, so stages are laid back to back
// in profile order; a stage that no longer fits (stages of a pipelined
// query overlap) is aligned to the end of the execute span.
void AttachStages(const QueryProfile& profile, int64_t exec_span,
                  int64_t statement, SpanLog* log) {
  const double lo = log->Get(exec_span).start_us;
  const double hi = log->Get(exec_span).end_us;
  double cursor = lo;
  for (const nestra::ProfiledStage& stage : profile.stages()) {
    const double dur = std::min(stage.seconds * 1e6, hi - lo);
    double start = cursor;
    if (start + dur > hi) {
      start = hi - dur;
    } else {
      cursor += dur;
    }
    log->Add("nra.stage", exec_span, statement, start, start + dur,
             stage.label + " [" + nestra::QueryPhaseLabel(stage.phase) + "]");
  }
}

// Folds one finished statement's spans (those after `mark`) into the
// layer totals, then drops them if the log is over its budget.
void CloseStatement(SpanLog* log, size_t mark, Layers* layers) {
  const std::vector<Span> mine(log->spans().begin() +
                                   static_cast<std::ptrdiff_t>(mark),
                               log->spans().end());
  const std::string err = ValidateSpanTree(mine);
  if (!err.empty()) {
    if (layers->bad_trees++ == 0) layers->first_bad_tree = err;
  }
  const std::vector<double> self = SelfTimesUs(mine);
  for (size_t i = 0; i < mine.size(); ++i) {
    layers->self_us[mine[i].name] += self[i];
  }
  ++layers->traced_statements;
  if (log->size() > kMaxKeptSpans) log->Truncate(mark);
}

// Profile-derived layer observations of one execution.
void RecordProfile(const QueryProfile& profile, const NraStats& stats,
                   double execute_ms, Layers* layers) {
  layers->execute_ms.push_back(execute_ms);
  static constexpr QueryPhase kPhases[] = {
      QueryPhase::kUnattributed, QueryPhase::kUnnestJoin, QueryPhase::kNest,
      QueryPhase::kLinkingSelection, QueryPhase::kPostProcessing};
  for (QueryPhase p : kPhases) {
    layers->phase_ms[static_cast<int>(p)] += profile.PhaseSeconds(p) * 1e3;
  }
  layers->stages += static_cast<double>(profile.stages().size());
  layers->intermediate_rows += static_cast<double>(stats.intermediate_rows);
  ++layers->profiled;
  for (const nestra::ProfiledStage& stage : profile.stages()) {
    auto it = profile.estimates.find(stage.label);
    if (it == profile.estimates.end() || it->second.rows < 0) continue;
    const double est = std::max(1.0, it->second.rows);
    const double actual = std::max(1.0, static_cast<double>(stage.rows_out));
    layers->q_errors.push_back(std::max(est / actual, actual / est));
  }
}

// The decomposed public-call path: ParseStatement -> BindQuery ->
// VerifyPlan -> NraExecutor::Execute (verify_plans off, so the verifier is
// not counted twice), each under its own span. A profiled execution also
// feeds the nra.* / plan.* observations and gets its stages as child spans.
// `engine_us` receives the summed time of the four calls.
Result<Table> RunDecomposed(const Catalog& catalog, const NraOptions& options,
                            bool profiled, const std::string& sql,
                            int64_t parent, int64_t statement, SpanLog* log,
                            Layers* layers, NraStats* stats,
                            double* engine_us) {
  int64_t span = log->Begin("sql.parse", parent, statement);
  Result<nestra::AstStatementPtr> ast = nestra::ParseStatement(sql);
  log->End(span);
  const double parse_us = log->Get(span).duration_us();
  NESTRA_RETURN_NOT_OK(ast.status());
  if ((*ast)->selects.size() != 1) {
    return Status::NotImplemented("compound statements are not benchmarked");
  }

  span = log->Begin("plan.bind", parent, statement);
  Result<nestra::QueryBlockPtr> root =
      nestra::BindQuery(*(*ast)->selects[0], catalog);
  log->End(span);
  const double bind_us = log->Get(span).duration_us();
  NESTRA_RETURN_NOT_OK(root.status());

  span = log->Begin("verify.verify", parent, statement);
  const Status verified = nestra::VerifyPlan(**root, catalog, options);
  log->End(span);
  const double verify_us = log->Get(span).duration_us();
  NESTRA_RETURN_NOT_OK(verified);

  NraOptions exec_options = options;
  exec_options.profile = profiled;
  exec_options.verify_plans = false;
  NraExecutor executor(catalog, exec_options);
  QueryProfile profile;
  span = log->Begin("nra.execute", parent, statement);
  Result<Table> result = executor.Execute(**root, stats, &profile);
  log->End(span);
  const double execute_ms = log->Get(span).duration_us() / 1e3;
  AttachStages(profile, span, statement, log);

  layers->parse_us.push_back(parse_us);
  layers->bind_us.push_back(bind_us);
  layers->verify_us.push_back(verify_us);
  if (result.ok() && profiled) {
    RecordProfile(profile, *stats, execute_ms, layers);
  }
  *engine_us = parse_us + bind_us + verify_us + execute_ms * 1e3;
  return result;
}

// ---------------------------------------------------------------------------
// Set-up.

struct CatalogSetup {
  std::unique_ptr<Catalog> catalog;
  double setup_s = 0;
  // Traced run only, over the same set-ups: the median Catalog::RegisterTable
  // time, and the median PopulateTpch time less it (the generation share).
  double register_ms = 0;
  double generate_ms = 0;
};

// Total Catalog::RegisterTable time over copies of `catalog`'s tables
// (registration runs the stats, zone-map and NULL scans).
Result<double> RegisterMs(const Catalog& catalog) {
  Catalog scratch;
  double total = 0;
  for (const std::string& name : catalog.TableNames()) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    NESTRA_ASSIGN_OR_RETURN(const nestra::TableMetadata* md,
                            catalog.GetMetadata(name));
    Table copy = *table;
    const Clock::time_point t0 = Clock::now();
    NESTRA_RETURN_NOT_OK(scratch.RegisterTable(
        name, std::move(copy), md->primary_key, md->not_null_columns));
    total += Ms(t0);
  }
  return total;
}

// Builds the workload's catalog spec.setup_reps times (each build replacing
// the last) and keeps the final one.
Result<CatalogSetup> BuildCatalog(const Spec& spec, bool trace) {
  CatalogSetup out;
  std::vector<double> secs, register_ms, generate_ms;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    out.catalog.reset();
    auto catalog = std::make_unique<Catalog>();
    const Clock::time_point t0 = Clock::now();
    NESTRA_RETURN_NOT_OK(nestra::PopulateTpch(catalog.get(), ConfigFor(spec)));
    secs.push_back(SecondsSince(t0));
    if (trace) {
      NESTRA_ASSIGN_OR_RETURN(const double ms, RegisterMs(*catalog));
      register_ms.push_back(ms);
      generate_ms.push_back(secs.back() * 1e3 - ms);
    }
    out.catalog = std::move(catalog);
  }
  out.setup_s = Median(secs);
  out.register_ms = Median(register_ms);
  out.generate_ms = Median(generate_ms);
  return out;
}

// ---------------------------------------------------------------------------
// Single-client workloads (paper_sf01, nulls_shapes).

struct SingleClientRun {
  Samples samples;
  Layers layers;
  std::vector<Span> spans;
};

Result<SingleClientRun> RunSingleClient(const Catalog& catalog,
                                        const std::vector<Statement>& stmts,
                                        const OracleGate& gate,
                                        const RunOptions& opts) {
  const NraOptions options = NraOptions::Optimized();
  NraExecutor executor(catalog, options);
  Telemetry telemetry(catalog);
  // One untimed warm-up pass (the gate already ran each statement once in
  // another executor), so the allocator and the pool reach steady state.
  for (const Statement& st : stmts) {
    NESTRA_RETURN_NOT_OK(executor.ExecuteStatementSql(st.sql).status());
  }
  const Clock::time_point origin = Clock::now();
  SpanLog log(origin, 0);
  SingleClientRun run;
  nestra::Rng rng(opts.seed ^ 0x636c69656e74ULL);
  std::vector<size_t> order(stmts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Closed loop: whole cycles over every statement, each cycle in a seeded
  // order, until the time is up. The traced run alternates untraced and
  // traced cycles, so trace.overhead_pct compares like with like.
  const int64_t min_cycles = opts.trace ? 2 : 1;
  for (int64_t cycle = 0;
       cycle < min_cycles || SecondsSince(origin) < opts.seconds; ++cycle) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    const bool traced = opts.trace && cycle % 2 == 1;
    if (traced) telemetry.Enable(true);
    for (size_t idx : order) {
      const Statement& st = stmts[idx];
      NraStats stats;
      if (!traced) {
        const Clock::time_point t0 = Clock::now();
        Result<Table> r = executor.ExecuteStatementSql(st.sql, &stats);
        const double ms = Ms(t0);
        Record(r, stats, st.tmpl, st.tmpl, ms, gate, &run.samples);
        if (opts.trace) run.layers.untraced_ms[st.tmpl].push_back(ms);
        continue;
      }
      const size_t mark = log.size();
      const int64_t stmt = log.NewStatement();
      const Clock::time_point t0 = Clock::now();
      const int64_t req = log.Begin("client.request", -1, stmt, st.tmpl);
      double engine_us = 0;
      Result<Table> r =
          RunDecomposed(catalog, options, /*profiled=*/true, st.sql, req,
                        stmt, &log, &run.layers, &stats, &engine_us);
      log.End(req);
      const double ms = Ms(t0);
      Record(r, stats, st.tmpl, st.tmpl, ms, gate, &run.samples);
      run.layers.traced_ms[st.tmpl].push_back(ms);
      CloseStatement(&log, mark, &run.layers);
    }
    if (traced) telemetry.Enable(false);
  }
  run.spans = log.spans();
  return run;
}

// ---------------------------------------------------------------------------
// point_sessions: concurrent closed-loop session clients.

struct SessionClientRun {
  Samples samples;
  Layers layers;
  double busy_seconds = 0;  // loop wall time less result fingerprinting
};

std::string PreparedName(int tmpl) { return "t" + std::to_string(tmpl); }

std::string InstanceKey(size_t i) { return "i" + std::to_string(i); }

// One client's closed loop over seeded (instance, mode) draws, alternating
// ad hoc Session::Query and Session::ExecutePrepared.
void RunSessionClient(nestra::Session* session, const Catalog& catalog,
                      const std::vector<PointInstance>& instances,
                      const OracleGate& gate, bool traced, double seconds,
                      uint64_t seed, SessionClientRun* run, SpanLog* log) {
  nestra::Rng rng(seed);
  const NraOptions& options = session->options();
  const Clock::time_point start = Clock::now();
  // At least one statement of each kind (ad hoc unprofiled, prepared, ad
  // hoc profiled, prepared), however short the run.
  for (int64_t n = 0; n < 4 || SecondsSince(start) < seconds; ++n) {
    const size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(instances.size()) - 1));
    const PointInstance& inst = instances[idx];
    const bool prepared = n % 2 == 1;
    const std::string tmpl = std::string(PointTemplateName(inst.tmpl)) +
                             (prepared ? ".prepared" : ".adhoc");
    NraStats stats;
    const size_t mark = log->size();
    int64_t stmt = -1, req = -1, call = -1;
    if (traced) {
      stmt = log->NewStatement();
      req = log->Begin("client.request", -1, stmt, tmpl);
      call = log->Begin(prepared ? "session.execute_prepared"
                                 : "session.query",
                        req, stmt);
    }
    const Clock::time_point t0 = Clock::now();
    Result<Table> r =
        prepared ? session->ExecutePrepared(PreparedName(inst.tmpl),
                                            inst.args, &stats)
                 : session->Query(inst.AdhocSql(), &stats);
    const double ms = Ms(t0);
    if (traced) log->End(call);
    Record(r, stats, InstanceKey(idx), tmpl, ms, gate, &run->samples);
    if (!traced) continue;
    (prepared ? run->layers.prepared_ms : run->layers.adhoc_ms).push_back(ms);
    run->layers.traced_ms[tmpl].push_back(ms);
    if (!prepared) {
      // Replay the same statement through the decomposed calls. Every
      // other replay runs with the session's own options, so the session
      // layer's cost shows as the difference; the rest are profiled.
      const bool profiled = n % 4 == 2;
      NraStats replay_stats;
      double engine_us = 0;
      Result<Table> replay =
          RunDecomposed(catalog, options, profiled, inst.AdhocSql(), req,
                        stmt, log, &run->layers, &replay_stats, &engine_us);
      if (replay.ok() && !profiled) {
        run->layers.overhead_us.push_back(ms * 1e3 - engine_us);
      }
    }
    log->End(req);
    CloseStatement(log, mark, &run->layers);
  }
}

// ---------------------------------------------------------------------------
// Metric names and units of each mode, in print order.

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"latency_geomean_ms", "ms"},
      {"throughput_qps", "1/s"},
      {"peak_mem_mb", "MB"},
      {"rss_peak_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sql.parse_us", "us"},
      {"plan.bind_us", "us"},
      {"verify.verify_us", "us"},
      {"server.adhoc_ms", "ms"},
      {"server.prepared_ms", "ms"},
      {"server.session_overhead_us", "us"},
      {"server.admission_peak_queue_depth", "count"},
      {"nra.execute_ms", "ms"},
      {"nra.phase_unnest_join_ms", "ms"},
      {"nra.phase_nest_ms", "ms"},
      {"nra.phase_linking_selection_ms", "ms"},
      {"nra.phase_post_processing_ms", "ms"},
      {"nra.stages_per_query", "count"},
      {"nra.intermediate_rows", "rows"},
      {"exec.join_build_rows", "rows"},
      {"exec.join_probe_rows", "rows"},
      {"exec.sort_rows", "rows"},
      {"exec.rows_examined_per_row_out", "ratio"},
      {"nested.nest_groups_peak", "count"},
      {"plan.q_error_p50", "ratio"},
      {"plan.q_error_max", "ratio"},
      {"storage.zone_pruned_ratio", "ratio"},
      {"storage.sim_io_ms", "ms"},
      {"storage.io_hit_ratio", "ratio"},
      {"storage.register_ms", "ms"},
      {"tpch.generate_ms", "ms"},
      {"common.pool_tasks_per_query", "count"},
      {"common.pool_wait_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"self.client.request_ms", "ms"},
      {"self.session.query_ms", "ms"},
      {"self.session.execute_prepared_ms", "ms"},
      {"self.sql.parse_ms", "ms"},
      {"self.plan.bind_ms", "ms"},
      {"self.verify.verify_ms", "ms"},
      {"self.nra.execute_ms", "ms"},
      {"self.nra.stage_ms", "ms"},
  };
  return kMetrics;
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

// The per-layer metric values of a traced run.
std::map<std::string, double> LayerValues(const Layers& l, const Counters& d,
                                          const CatalogSetup& prep,
                                          double nest_groups_peak,
                                          int admission_peak_queue) {
  std::map<std::string, double> v;
  v["sql.parse_us"] = Median(l.parse_us);
  v["plan.bind_us"] = Median(l.bind_us);
  v["verify.verify_us"] = Median(l.verify_us);
  v["server.adhoc_ms"] = Median(l.adhoc_ms);
  v["server.prepared_ms"] = Median(l.prepared_ms);
  v["server.session_overhead_us"] = Median(l.overhead_us);
  v["server.admission_peak_queue_depth"] = admission_peak_queue;
  v["nra.execute_ms"] = Median(l.execute_ms);
  const double n = static_cast<double>(l.profiled);
  v["nra.phase_unnest_join_ms"] =
      SafeDiv(l.phase_ms[static_cast<int>(QueryPhase::kUnnestJoin)], n);
  v["nra.phase_nest_ms"] =
      SafeDiv(l.phase_ms[static_cast<int>(QueryPhase::kNest)], n);
  v["nra.phase_linking_selection_ms"] =
      SafeDiv(l.phase_ms[static_cast<int>(QueryPhase::kLinkingSelection)], n);
  v["nra.phase_post_processing_ms"] =
      SafeDiv(l.phase_ms[static_cast<int>(QueryPhase::kPostProcessing)], n);
  v["nra.stages_per_query"] = SafeDiv(l.stages, n);
  v["nra.intermediate_rows"] = SafeDiv(l.intermediate_rows, n);
  v["exec.join_build_rows"] = SafeDiv(d.build, d.queries);
  v["exec.join_probe_rows"] = SafeDiv(d.probe, d.queries);
  v["exec.sort_rows"] = SafeDiv(d.sort, d.queries);
  v["exec.rows_examined_per_row_out"] =
      SafeDiv(d.build + d.probe + d.sort, d.rows_out);
  v["nested.nest_groups_peak"] = nest_groups_peak;
  v["plan.q_error_p50"] = Median(l.q_errors);
  v["plan.q_error_max"] =
      l.q_errors.empty()
          ? 0
          : *std::max_element(l.q_errors.begin(), l.q_errors.end());
  v["storage.zone_pruned_ratio"] = SafeDiv(d.zone_pruned, d.zone_scanned);
  v["storage.sim_io_ms"] = SafeDiv(d.sim_ms, d.queries);
  v["storage.io_hit_ratio"] = SafeDiv(d.io_hits, d.io_hits + d.io_misses);
  v["storage.register_ms"] = prep.register_ms;
  v["tpch.generate_ms"] = prep.generate_ms;
  v["common.pool_tasks_per_query"] = SafeDiv(d.pool_tasks, d.queries);
  v["common.pool_wait_ms"] = SafeDiv(d.pool_wait_s * 1e3, d.queries);
  // Geometric mean over templates of traced / untraced median latency.
  std::vector<double> ratios;
  for (const auto& [tmpl, traced] : l.traced_ms) {
    auto it = l.untraced_ms.find(tmpl);
    if (it == l.untraced_ms.end() || traced.empty() || it->second.empty()) {
      continue;
    }
    ratios.push_back(Median(traced) / Median(it->second));
  }
  v["trace.overhead_pct"] = ratios.empty() ? 0 : (GeoMean(ratios) - 1) * 100;
  const double stmts = static_cast<double>(l.traced_statements);
  for (const char* name :
       {"client.request", "session.query", "session.execute_prepared",
        "sql.parse", "plan.bind", "verify.verify", "nra.execute",
        "nra.stage"}) {
    auto it = l.self_us.find(name);
    v[std::string("self.") + name + "_ms"] =
        it == l.self_us.end() ? 0 : SafeDiv(it->second / 1e3, stmts);
  }
  return v;
}

void FillEndToEnd(const Samples& s, double setup_s, double busy_seconds,
                  RunReport* report) {
  std::vector<double> template_medians;
  for (const auto& [tmpl, v] : s.by_template) {
    template_medians.push_back(Median(v));
  }
  const double completed = static_cast<double>(s.latency_ms.size());
  std::map<std::string, double> v;
  v["setup_s"] = setup_s;
  v["latency_p50_ms"] = Quantile(s.latency_ms, 0.5);
  v["latency_p90_ms"] = Quantile(s.latency_ms, 0.9);
  v["latency_geomean_ms"] = GeoMean(template_medians);
  v["throughput_qps"] = SafeDiv(completed, busy_seconds);
  v["peak_mem_mb"] = static_cast<double>(s.peak_mem_bytes) / 1e6;
  v["rss_peak_mb"] = PeakRssMb();
  for (const auto& [name, unit] : EndToEndMetrics()) {
    report->metrics.push_back({name, unit, v[name]});
  }
  report->notes.push_back(
      "latency_p90_ms samples: " + std::to_string(s.latency_ms.size()) +
      " over " + std::to_string(s.by_template.size()) + " templates");
}

void FillPerLayer(const std::map<std::string, double>& v,
                  RunReport* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = v.find(name);
    report->metrics.push_back({name, unit, it == v.end() ? 0 : it->second});
  }
}

void FinishCounts(const Samples& s, const Layers& l, RunReport* report) {
  report->attempted = s.attempted;
  report->failed = s.failed;
  report->correct = report->correct && s.failed == 0;
  report->notes.push_back(
      "error_rate " + FormatNumber(SafeDiv(static_cast<double>(s.failed),
                                           static_cast<double>(s.attempted))) +
      " ratio (" + std::to_string(s.failed) + " failed or mismatched of " +
      std::to_string(s.attempted) + " attempted)");
  if (l.traced_statements > 0) {
    report->notes.push_back(
        "span trees: " + std::to_string(l.traced_statements) +
        " statements, " + std::to_string(l.bad_trees) + " malformed" +
        (l.first_bad_tree.empty() ? "" : " (first: " + l.first_bad_tree + ")"));
  }
}

// Admits every distinct single-client statement: the engine result under
// the timed options must bag-equal the oracle's.
void GateStatements(const Catalog& catalog,
                    const std::vector<Statement>& stmts, OracleGate* gate,
                    RunReport* report) {
  NraExecutor executor(catalog, NraOptions::Optimized());
  int failures = 0;
  for (const Statement& st : stmts) {
    Result<Table> engine = executor.ExecuteStatementSql(st.sql);
    Result<Table> oracle = OracleResult(catalog, st.sql);
    Status s = !engine.ok()   ? engine.status()
               : !oracle.ok() ? oracle.status()
                              : gate->Admit(st.tmpl, *engine, *oracle);
    if (!s.ok()) {
      ++failures;
      report->notes.push_back("gate FAILED " + st.tmpl + ": " + s.ToString() +
                              " -- " + st.sql);
    }
  }
  report->correct = failures == 0;
  report->notes.push_back(
      "gate: " + std::to_string(stmts.size()) +
      " distinct statements checked against the nested-iteration oracle, " +
      std::to_string(failures) + " failed");
}

Result<RunReport> RunSingle(const Spec& spec, const RunOptions& opts) {
  RunReport report;
  report.scale = spec.scale;
  report.clients = 1;
  report.num_threads =
      nestra::ResolveNumThreads(NraOptions::Optimized().num_threads);
  NESTRA_ASSIGN_OR_RETURN(CatalogSetup prep, BuildCatalog(spec, opts.trace));
  const Catalog& catalog = *prep.catalog;
  std::vector<Statement> stmts;
  if (spec.nulls) {
    stmts = NullsCorpus(opts.seed, kNullsCorpus);
  } else {
    NESTRA_ASSIGN_OR_RETURN(stmts, PaperQueries(catalog));
  }
  OracleGate gate;
  GateStatements(catalog, stmts, &gate, &report);

  const Counters before = Counters::Take();
  const Clock::time_point t0 = Clock::now();
  NESTRA_ASSIGN_OR_RETURN(SingleClientRun run,
                          RunSingleClient(catalog, stmts, gate, opts));
  const double busy = SecondsSince(t0) - run.samples.check_seconds;
  FinishCounts(run.samples, run.layers, &report);
  if (!opts.trace) {
    FillEndToEnd(run.samples, prep.setup_s, busy, &report);
    return report;
  }
  const double groups =
      nestra::telemetry::Metrics().nest_groups_peak->Value();
  FillPerLayer(LayerValues(run.layers, Counters::Take() - before, prep,
                           groups, 0),
               &report);
  report.spans = std::move(run.spans);
  return report;
}

Result<RunReport> RunPointSessions(const Spec& spec, const RunOptions& opts) {
  RunReport report;
  report.scale = spec.scale;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  report.clients = std::max(1, std::min(spec.clients, hw > 0 ? hw : 1));
  NESTRA_ASSIGN_OR_RETURN(CatalogSetup prep, BuildCatalog(spec, opts.trace));
  const Catalog& catalog = *prep.catalog;
  NESTRA_ASSIGN_OR_RETURN(
      std::vector<PointInstance> instances,
      PointInstances(catalog, opts.seed, kPointInstances));

  nestra::ConnectionManager manager(prep.catalog.get());
  report.num_threads =
      nestra::ResolveNumThreads(manager.options().session_defaults.num_threads);
  std::vector<std::unique_ptr<nestra::Session>> sessions;
  for (int c = 0; c <= report.clients; ++c) {  // the last one runs the gate
    sessions.push_back(manager.Connect());
    for (int t = 0; t < kNumPointTemplates; ++t) {
      NESTRA_RETURN_NOT_OK(
          sessions.back()->Prepare(PreparedName(t), PointPreparedSql(t)));
    }
  }

  // Gate: ad hoc must bag-equal the oracle; prepared must match ad hoc.
  OracleGate gate;
  nestra::Session& gate_session = *sessions.back();
  int failures = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    const PointInstance& inst = instances[i];
    Result<Table> adhoc = gate_session.Query(inst.AdhocSql());
    Result<Table> oracle = OracleResult(catalog, inst.AdhocSql());
    Status s = !adhoc.ok()    ? adhoc.status()
               : !oracle.ok() ? oracle.status()
                              : gate.Admit(InstanceKey(i), *adhoc, *oracle);
    if (s.ok()) {
      Result<Table> prepared = gate_session.ExecutePrepared(
          PreparedName(inst.tmpl), inst.args);
      s = prepared.ok() ? gate.Agree(InstanceKey(i), *prepared)
                        : prepared.status();
    }
    if (!s.ok()) {
      ++failures;
      report.notes.push_back("gate FAILED " + InstanceKey(i) + ": " +
                             s.ToString() + " -- " + inst.AdhocSql());
    }
  }
  report.correct = failures == 0;
  report.notes.push_back(
      "gate: " + std::to_string(instances.size()) +
      " instances checked against the nested-iteration oracle, ad hoc and "
      "prepared, " +
      std::to_string(failures) + " failed");

  // The traced run measures an untraced third, then a traced rest; every
  // client starts each part together.
  Telemetry telemetry(catalog);
  const Clock::time_point origin = Clock::now();
  const int clients = report.clients;
  std::vector<SessionClientRun> runs(static_cast<size_t>(clients));
  std::vector<SpanLog> logs;
  for (int c = 0; c < clients; ++c) logs.emplace_back(origin, c);
  Counters before;
  std::barrier<> sync(clients);
  auto client = [&](int c) {
    SessionClientRun& run = runs[static_cast<size_t>(c)];
    const uint64_t seed = opts.seed * 1000003ULL + static_cast<uint64_t>(c);
    nestra::Session* session = sessions[static_cast<size_t>(c)].get();
    SessionClientRun untraced;
    const double untraced_seconds = opts.trace ? opts.seconds / 3 : opts.seconds;
    sync.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    RunSessionClient(session, catalog, instances, gate, false,
                     untraced_seconds, seed, &untraced,
                     &logs[static_cast<size_t>(c)]);
    untraced.busy_seconds =
        SecondsSince(t0) - untraced.samples.check_seconds;
    if (!opts.trace) {
      run = std::move(untraced);
      return;
    }
    for (const auto& [tmpl, v] : untraced.samples.by_template) {
      run.layers.untraced_ms[tmpl] = v;
    }
    run.samples.Merge(untraced.samples);
    sync.arrive_and_wait();
    if (c == 0) {
      telemetry.Enable(true);
      before = Counters::Take();
    }
    sync.arrive_and_wait();
    RunSessionClient(session, catalog, instances, gate, true,
                     opts.seconds - untraced_seconds, seed + 7919, &run,
                     &logs[static_cast<size_t>(c)]);
    sync.arrive_and_wait();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  const Counters delta = Counters::Take() - before;
  telemetry.Enable(false);

  Samples samples;
  Layers layers;
  double busy = 0;
  for (SessionClientRun& run : runs) {
    samples.Merge(run.samples);
    layers.Merge(run.layers);
    busy = std::max(busy, run.busy_seconds);
  }
  FinishCounts(samples, layers, &report);
  if (!opts.trace) {
    FillEndToEnd(samples, prep.setup_s, busy, &report);
    return report;
  }
  const double groups =
      nestra::telemetry::Metrics().nest_groups_peak->Value();
  FillPerLayer(LayerValues(layers, delta, prep, groups,
                           manager.admission().peak_queue_depth()),
               &report);
  for (SpanLog& log : logs) {
    report.spans.insert(report.spans.end(), log.spans().begin(),
                        log.spans().end());
  }
  return report;
}

}  // namespace

Result<RunReport> RunWorkload(const RunOptions& opts) {
  for (const Spec& spec : kSpecs) {
    if (opts.workload != spec.name) continue;
    return spec.clients > 1 ? RunPointSessions(spec, opts)
                            : RunSingle(spec, opts);
  }
  return Status::InvalidArgument("unknown workload " + opts.workload);
}

}  // namespace perfbench
