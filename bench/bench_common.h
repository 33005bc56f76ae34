#ifndef NESTRA_BENCH_BENCH_COMMON_H_
#define NESTRA_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/native_optimizer.h"
#include "baseline/nested_iteration.h"
#include "common/date.h"
#include "common/thread_pool.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "storage/catalog.h"
#include "storage/io_sim.h"
#include "telemetry/metrics.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

// Build provenance comes in as compile definitions from bench/CMakeLists.txt;
// defaults keep the header compilable from other targets.
#ifndef NESTRA_GIT_SHA
#define NESTRA_GIT_SHA "unknown"
#endif
#ifndef NESTRA_BUILD_TYPE
#define NESTRA_BUILD_TYPE "unknown"
#endif
#ifndef NESTRA_COMPILER
#define NESTRA_COMPILER "unknown"
#endif

namespace nestra {
namespace bench {

/// The "meta" object stamped into every bench JSON artifact: which build
/// produced the numbers and on how many hardware threads. Schema documented
/// in bench/README.md.
inline std::string BuildMetaJson() {
  std::ostringstream oss;
  oss << "{\"git_sha\": \"" << NESTRA_GIT_SHA << "\", \"build_type\": \""
      << NESTRA_BUILD_TYPE << "\", \"compiler\": \"" << NESTRA_COMPILER
      << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << "}";
  return oss.str();
}

// ---------- BENCH_2.json trajectory recorder ----------

/// Collects one entry per executed benchmark and, when the environment
/// variable `NESTRA_BENCH_JSON` names a file, writes them there as JSON at
/// process exit (schema "nestra-bench-trajectory-v1"). CI merges the
/// per-binary files into the BENCH_2.json artifact.
class BenchJsonRecorder {
 public:
  static BenchJsonRecorder& Get() {
    static BenchJsonRecorder* recorder = [] {
      auto* r = new BenchJsonRecorder();
      std::atexit(&BenchJsonRecorder::WriteAtExit);
      return r;
    }();
    return *recorder;
  }

  void Record(const std::string& name, double wall_ms,
              std::vector<std::pair<std::string, double>> counters) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({name, wall_ms, std::move(counters)});
  }

 private:
  struct Entry {
    std::string name;
    double wall_ms;
    std::vector<std::pair<std::string, double>> counters;
  };

  static void WriteAtExit() {
    const char* path = std::getenv("NESTRA_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') return;
    BenchJsonRecorder& self = Get();
    std::lock_guard<std::mutex> lock(self.mu_);
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"schema\": \"nestra-bench-trajectory-v1\",\n");
    std::fprintf(f, "  \"meta\": %s,\n", BuildMetaJson().c_str());
    std::fprintf(f, "  \"entries\": [");
    for (size_t i = 0; i < self.entries_.size(); ++i) {
      const Entry& e = self.entries_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"wall_ms\": %.6f",
                   i == 0 ? "" : ",", e.name.c_str(), e.wall_ms);
      for (const auto& [key, value] : e.counters) {
        std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
      }
      std::fprintf(f, "}");
    }
    // The process metrics registry rides along: with metrics enabled for
    // the bench run (SharedCatalog turns them on) this shows cumulative
    // engine counters across every benchmark in the binary.
    std::fprintf(f, "\n  ],\n  \"metrics\": %s\n}\n",
                 telemetry::DumpMetricsJson().c_str());
    std::fclose(f);
  }

  std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Collects one QueryProfile JSON document per recorded NRA benchmark and,
/// when `NESTRA_PROFILE_JSON` names a file, writes them there at process
/// exit (schema "nestra-profile-trajectory-v1"). The profile is taken from
/// one dedicated profiled run per benchmark — the timed iterations run with
/// profiling off, so the recorded wall_ms is unaffected.
class ProfileJsonRecorder {
 public:
  static ProfileJsonRecorder& Get() {
    static ProfileJsonRecorder* recorder = [] {
      auto* r = new ProfileJsonRecorder();
      std::atexit(&ProfileJsonRecorder::WriteAtExit);
      return r;
    }();
    return *recorder;
  }

  static bool Enabled() {
    const char* path = std::getenv("NESTRA_PROFILE_JSON");
    return path != nullptr && path[0] != '\0';
  }

  void Record(const std::string& name, std::string profile_json) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({name, std::move(profile_json)});
  }

 private:
  struct Entry {
    std::string name;
    std::string profile_json;  // already-valid JSON from QueryProfile::ToJson
  };

  static void WriteAtExit() {
    const char* path = std::getenv("NESTRA_PROFILE_JSON");
    if (path == nullptr || path[0] == '\0') return;
    ProfileJsonRecorder& self = Get();
    std::lock_guard<std::mutex> lock(self.mu_);
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"schema\": \"nestra-profile-trajectory-v1\",\n");
    std::fprintf(f, "  \"meta\": %s,\n", BuildMetaJson().c_str());
    std::fprintf(f, "  \"entries\": [");
    for (size_t i = 0; i < self.entries_.size(); ++i) {
      const Entry& e = self.entries_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"profile\": %s}",
                   i == 0 ? "" : ",", e.name.c_str(),
                   e.profile_json.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  std::mutex mu_;
  std::vector<Entry> entries_;
};

/// The thread counts every bench_query* binary sweeps for the NRA-optimized
/// configuration: serial oracle, a fixed mid point, and the hardware max
/// (num_threads = 0 resolves to hardware_concurrency).
inline std::vector<std::pair<const char*, int>> ThreadSweep() {
  return {{"1", 1}, {"4", 4}, {"max", 0}};
}

/// The paper's X axes scaled 1/10 (block-size ratios preserved; see
/// DESIGN.md): Query 1 sweeps the outer block over 400..1600 rows against a
/// fixed inner block; Queries 2/3 sweep the part block over 1.2K..4.8K with
/// ~1.6K partsupp and ~1.2K lineitem blocks.
///
/// The generated catalog is cached per configuration key so every benchmark
/// in a binary shares one deterministic database.
inline const Catalog& SharedCatalog(bool declare_not_null = false,
                                    double null_l_extendedprice = 0.0) {
  struct Entry {
    std::string key;
    std::unique_ptr<Catalog> catalog;
  };
  static std::vector<Entry>* cache = new std::vector<Entry>();
  const std::string key = std::to_string(declare_not_null) + "/" +
                          std::to_string(null_l_extendedprice);
  for (const Entry& e : *cache) {
    if (e.key == key) return *e.catalog;
  }
  // Benches always run with live metrics: the registry lands in the
  // BENCH_*.json "metrics" block, and the counter upkeep (one relaxed
  // fetch_add per stage/query, nothing per-row) is noise at bench scale.
  telemetry::SetMetricsEnabled(true);

  TpchConfig config;
  config.num_orders = 15000;
  config.num_parts = 6000;      // p_size in 1..50: width w selects 120*w rows
  config.num_suppliers = 300;
  config.declare_not_null = declare_not_null;
  config.null_l_extendedprice = null_l_extendedprice;
  auto catalog = std::make_unique<Catalog>();
  const Status st = PopulateTpch(catalog.get(), config);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  cache->push_back({key, std::move(catalog)});

  // Register the base tables with the shared I/O simulator (see DESIGN.md:
  // the paper's testbed was disk-bound; the simulator restores that cost
  // structure, and benches report both the measured CPU time and the
  // simulated-1GB/32MB-buffer elapsed time `t2005_ms`).
  static IoSim* sim = [] {
    auto* s = new IoSim();
    IoSim::Install(s);
    return s;
  }();
  const Catalog& result = *cache->back().catalog;
  for (const std::string& name : result.TableNames()) {
    sim->RegisterTable(*result.GetTable(name));
  }
  return result;
}

/// o_orderdate window whose selectivity yields ~`target_rows` orders.
inline std::pair<std::string, std::string> OrderDateWindow(
    const Catalog& catalog, int64_t target_rows) {
  const Table& orders = **catalog.GetTable("orders");
  const double frac =
      static_cast<double>(target_rows) / static_cast<double>(orders.num_rows());
  const Value lo = *ColumnQuantile(orders, "o_orderdate", 0.5 - frac / 2);
  const Value hi = *ColumnQuantile(orders, "o_orderdate", 0.5 + frac / 2);
  return {FormatDate(lo.int64()), FormatDate(hi.int64())};
}

/// p_size range [1, hi] selecting ~`target_rows` parts (p_size uniform
/// 1..50).
inline int64_t PartSizeHi(const Catalog& catalog, int64_t target_rows) {
  const Table& part = **catalog.GetTable("part");
  const double frac =
      static_cast<double>(target_rows) / static_cast<double>(part.num_rows());
  return std::max<int64_t>(1, static_cast<int64_t>(frac * 50.0 + 0.5));
}

// ---------- Strategy runners ----------

// `bench_name` feeds the BENCH_2.json recorder (the benchmark library's
// State carries no name accessor in the packaged version, so registration
// sites pass the name they registered under; empty = don't record).
inline void RunNra(benchmark::State& state, const Catalog& catalog,
                   const std::string& sql, const NraOptions& options,
                   const std::string& bench_name = std::string()) {
  NraExecutor exec(catalog, options);
  NraStats stats;
  IoSim* sim = IoSim::Get();
  int64_t rows = 0;
  double sim_ms = 0;
  double wall_ms = 0;
  int64_t iters = 0;
  for (auto _ : state) {
    if (sim != nullptr) sim->Reset();  // cold cache, like the paper
    const auto t0 = std::chrono::steady_clock::now();
    Result<Table> r = exec.ExecuteSql(sql, &stats);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    wall_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    if (sim != nullptr) sim_ms += sim->SimMillis();
    ++iters;
    rows = r->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["out_rows"] = static_cast<double>(rows);
  state.counters["intermediate_rows"] =
      static_cast<double>(stats.intermediate_rows);
  state.counters["nest_select_ms"] = stats.nest_select_seconds * 1e3;
  state.counters["join_ms"] = stats.join_seconds * 1e3;
  if (iters > 0) {
    state.counters["sim_io_ms"] = sim_ms / static_cast<double>(iters);
    state.counters["t2005_ms"] =
        (sim_ms + wall_ms) / static_cast<double>(iters);
    std::vector<std::pair<std::string, double>> counters = {
        {"out_rows", static_cast<double>(rows)},
        {"intermediate_rows", static_cast<double>(stats.intermediate_rows)},
        {"nest_select_ms", stats.nest_select_seconds * 1e3},
        {"join_ms", stats.join_seconds * 1e3},
        {"sim_io_ms", sim_ms / static_cast<double>(iters)},
        {"num_threads",
         static_cast<double>(ResolveNumThreads(options.num_threads))}};
    // One extra profiled run, outside the timed loop: the per-phase
    // breakdown rides along in BENCH_*.json and the full per-operator
    // profile goes to the NESTRA_PROFILE_JSON sink when set.
    if (!bench_name.empty()) {
      NraOptions popts = options;
      popts.profile = true;
      NraExecutor profiled_exec(catalog, popts);
      QueryProfile profile;
      if (sim != nullptr) sim->Reset();
      Result<Table> r = profiled_exec.ExecuteSql(sql, nullptr, &profile);
      if (r.ok()) {
        counters.push_back(
            {"phase_unnest_join_ms",
             profile.PhaseSeconds(QueryPhase::kUnnestJoin) * 1e3});
        counters.push_back(
            {"phase_nest_ms", profile.PhaseSeconds(QueryPhase::kNest) * 1e3});
        counters.push_back(
            {"phase_linking_selection_ms",
             profile.PhaseSeconds(QueryPhase::kLinkingSelection) * 1e3});
        counters.push_back(
            {"phase_post_processing_ms",
             profile.PhaseSeconds(QueryPhase::kPostProcessing) * 1e3});
        if (ProfileJsonRecorder::Enabled()) {
          ProfileJsonRecorder::Get().Record(bench_name, profile.ToJson());
        }
      }
      BenchJsonRecorder::Get().Record(
          bench_name, wall_ms / static_cast<double>(iters),
          std::move(counters));
    }
  }
}

inline void RunNative(benchmark::State& state, const Catalog& catalog,
                      const std::string& sql, bool use_indexes = true,
                      const std::string& bench_name = std::string()) {
  Result<QueryBlockPtr> root = ParseAndBind(sql, catalog);
  if (!root.ok()) {
    state.SkipWithError(root.status().ToString().c_str());
    return;
  }
  // Pre-warm index construction (System A's indexes pre-exist).
  {
    NestedIterOptions opts{.use_indexes = use_indexes};
    Result<Table> warm = ExecuteNative(**root, catalog, opts);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }
  NativePlanChoice choice;
  IoSim* sim = IoSim::Get();
  int64_t rows = 0;
  double sim_ms = 0;
  double wall_ms = 0;
  int64_t iters = 0;
  for (auto _ : state) {
    if (sim != nullptr) sim->Reset();  // cold cache, like the paper
    const auto t0 = std::chrono::steady_clock::now();
    NestedIterOptions opts{.use_indexes = use_indexes};
    Result<Table> r = ExecuteNative(**root, catalog, opts, &choice);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    wall_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    if (sim != nullptr) sim_ms += sim->SimMillis();
    ++iters;
    rows = r->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["out_rows"] = static_cast<double>(rows);
  if (iters > 0) {
    state.counters["sim_io_ms"] = sim_ms / static_cast<double>(iters);
    state.counters["t2005_ms"] =
        (sim_ms + wall_ms) / static_cast<double>(iters);
    if (!bench_name.empty()) {
      BenchJsonRecorder::Get().Record(
          bench_name, wall_ms / static_cast<double>(iters),
          {{"out_rows", static_cast<double>(rows)},
           {"sim_io_ms", sim_ms / static_cast<double>(iters)}});
    }
  }
  state.SetLabel(choice.kind == NativePlanKind::kSemiAntiPipeline
                     ? "plan=semi/anti"
                     : "plan=nested-iteration");
}

inline void RunOracleCheck(const Catalog& catalog, const std::string& sql,
                           const char* what) {
  // One-time sanity pass before timing: every strategy must agree.
  NestedIterationExecutor oracle(catalog, {.use_indexes = false});
  const Result<Table> expected = oracle.ExecuteSql(sql);
  if (!expected.ok()) {
    std::fprintf(stderr, "[%s] oracle failed: %s\n", what,
                 expected.status().ToString().c_str());
    std::abort();
  }
  for (const NraOptions& opts :
       {NraOptions::Original(), NraOptions::Optimized()}) {
    NraExecutor exec(catalog, opts);
    const Result<Table> actual = exec.ExecuteSql(sql);
    if (!actual.ok() || !Table::BagEquals(*expected, *actual)) {
      std::fprintf(stderr, "[%s] NRA (%s) disagrees with the oracle\n", what,
                   opts.ToString().c_str());
      std::abort();
    }
  }
  const Result<Table> native = ExecuteNativeSql(sql, catalog);
  if (!native.ok() || !Table::BagEquals(*expected, *native)) {
    std::fprintf(stderr, "[%s] native plan disagrees with the oracle\n", what);
    std::abort();
  }
}

// ---------- Shared series registration for Query 2 / Query 3 ----------

/// Part-block sweep: 1.2K..4.8K (the paper's 12K..48K at 1/10). With
/// p_size uniform in 1..50 over 6000 parts, `p_size <= hi` selects 120*hi
/// rows. availqty < 667 keeps ~1.6K partsupp rows; l_quantity = Z keeps
/// ~1.2K lineitem rows.
constexpr int64_t kPartSizeHis[] = {10, 20, 30, 40};
constexpr int64_t kAvailQtyMax = 667;
constexpr int64_t kQuantity = 25;

inline void RegisterQuerySeries(const char* figure, const Catalog& catalog,
                                bool is_query3, OuterLink outer,
                                InnerLink inner,
                                Query3Variant variant) {
  auto make_sql = [=, &catalog](int64_t size_hi) {
    (void)catalog;
    return is_query3 ? MakeQuery3(1, size_hi, kAvailQtyMax, kQuantity, outer,
                                  inner, variant)
                     : MakeQuery2(1, size_hi, kAvailQtyMax, kQuantity, outer,
                                  inner);
  };
  RunOracleCheck(catalog, make_sql(kPartSizeHis[0]), figure);

  for (const int64_t hi : kPartSizeHis) {
    const std::string label = std::to_string(hi * 120);  // selected parts
    const std::string native_name =
        std::string(figure) + "/Native/parts=" + label;
    benchmark::RegisterBenchmark(
        native_name.c_str(),
        [&catalog, make_sql, hi, native_name](benchmark::State& state) {
          RunNative(state, catalog, make_sql(hi), /*use_indexes=*/true,
                    native_name);
        })
        ->Unit(benchmark::kMillisecond)->MinTime(0.05);
    const std::string original_name =
        std::string(figure) + "/NraOriginal/parts=" + label;
    benchmark::RegisterBenchmark(
        original_name.c_str(),
        [&catalog, make_sql, hi, original_name](benchmark::State& state) {
          RunNra(state, catalog, make_sql(hi), NraOptions::Original(),
                 original_name);
        })
        ->Unit(benchmark::kMillisecond)->MinTime(0.05);
    // The optimized configuration sweeps the morsel-parallelism degree:
    // threads=1 is the serial oracle, threads=max resolves to the hardware.
    for (const auto& [tname, tval] : ThreadSweep()) {
      NraOptions opts = NraOptions::Optimized();
      opts.num_threads = tval;
      const std::string name = std::string(figure) + "/NraOptimized/parts=" +
                               label + "/threads=" + tname;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&catalog, make_sql, hi, opts, name](benchmark::State& state) {
            RunNra(state, catalog, make_sql(hi), opts, name);
          })
          ->Unit(benchmark::kMillisecond)->MinTime(0.05);
    }
  }
}

}  // namespace bench
}  // namespace nestra

#endif  // NESTRA_BENCH_BENCH_COMMON_H_
