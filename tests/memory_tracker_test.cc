// Properties of the memory-accounting subsystem (DESIGN.md §14):
//
//  * unit semantics of the tracker primitives — charge/release/fold, the
//    soft limit, the session/process roll-up, the TLS installers;
//  * accounted logical bytes are a proven lower bound for what the
//    materialized containers actually hold live at spot-check points;
//  * the reported query peak is run-to-run deterministic at fixed options
//    and equal across threads {1,2,8};
//  * the magic-set semijoin stage accounts its own build and result;
//  * EXPLAIN ANALYZE shows per-stage mem=/peak= for hash join, sort, and
//    nest stages, and those numbers match the profile JSON;
//  * with the limit off, accounting changes no observable behavior; with a
//    tiny limit the query fails loudly with ResourceExhausted and no
//    partial results — including under 8 concurrent limited sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/memory_tracker.h"
#include "common/table.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::S;

// ---------- Tracker primitives ----------

TEST(MemoryAcctTest, TracksCurrentAndPeak) {
  MemoryAcct acct;
  acct.Add(100);
  acct.Add(50);
  EXPECT_EQ(acct.cur(), 150);
  EXPECT_EQ(acct.peak(), 150);
  acct.Release(120);
  EXPECT_EQ(acct.cur(), 30);
  EXPECT_EQ(acct.peak(), 150);
  acct.Add(10);
  EXPECT_EQ(acct.peak(), 150);  // peak only moves on new highs
  acct.Reset();
  EXPECT_EQ(acct.cur(), 0);
  EXPECT_EQ(acct.peak(), 0);
}

TEST(QueryMemoryTrackerTest, ChargeReleaseAndFold) {
  QueryMemoryTracker tracker(/*limit=*/0);
  EXPECT_OK(tracker.Charge(1000));
  EXPECT_EQ(tracker.current(), 1000);
  EXPECT_EQ(tracker.peak(), 0);  // peak is stage-folded, not charge-driven
  EXPECT_OK(tracker.FoldStage(700));
  EXPECT_OK(tracker.FoldStage(400));  // smaller fold cannot lower the peak
  EXPECT_EQ(tracker.peak(), 700);
  tracker.Release(1000);
  EXPECT_EQ(tracker.current(), 0);
}

TEST(QueryMemoryTrackerTest, SoftLimitFailsLoudly) {
  QueryMemoryTracker tracker(/*limit=*/500);
  EXPECT_OK(tracker.Charge(400));
  const Status over = tracker.Charge(200);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("max_query_mem"), std::string::npos)
      << over.ToString();
  // A failed charge has still landed; the caller (or the destructor)
  // releases it, so session/process gauges never drift.
  EXPECT_EQ(tracker.current(), 600);
  const Status fold = tracker.FoldStage(501);
  EXPECT_EQ(fold.code(), StatusCode::kResourceExhausted);
  EXPECT_OK(tracker.FoldStage(500));  // exactly at the limit is allowed
}

TEST(QueryMemoryTrackerTest, FoldsIntoSessionOnDestruction) {
  SessionMemoryTracker session("test-session");
  {
    ScopedSessionMemory scoped_session(&session);
    QueryMemoryTracker q1(0);
    EXPECT_OK(q1.Charge(300));
    EXPECT_OK(q1.FoldStage(300));
    EXPECT_EQ(session.current(), 300);
    // q1 destructs with live bytes (as a failed query would): the residual
    // is released and the peak folds into the session.
  }
  EXPECT_EQ(session.current(), 0);
  EXPECT_EQ(session.peak(), 300);
  EXPECT_EQ(session.cumulative(), 300);
  EXPECT_EQ(session.queries(), 1);
  {
    ScopedSessionMemory scoped_session(&session);
    QueryMemoryTracker q2(0);
    EXPECT_OK(q2.FoldStage(120));
  }
  EXPECT_EQ(session.peak(), 300);         // max across queries
  EXPECT_EQ(session.cumulative(), 420);   // sum across queries
  EXPECT_EQ(session.queries(), 2);
}

TEST(MemoryTrackerTest, ScopedInstallersNestAndRestore) {
  EXPECT_EQ(CurrentQueryMemory(), nullptr);
  QueryMemoryTracker outer(0);
  QueryMemoryTracker inner(0);
  {
    ScopedQueryMemory a(&outer);
    EXPECT_EQ(CurrentQueryMemory(), &outer);
    {
      ScopedQueryMemory b(&inner);
      EXPECT_EQ(CurrentQueryMemory(), &inner);
    }
    EXPECT_EQ(CurrentQueryMemory(), &outer);
  }
  EXPECT_EQ(CurrentQueryMemory(), nullptr);
}

TEST(MemoryTrackerTest, DumpHierarchyListsLiveSessions) {
  SessionMemoryTracker session("dump-probe");
  {
    ScopedSessionMemory scoped(&session);
    QueryMemoryTracker q(0);
    EXPECT_OK(q.FoldStage(64));
  }
  const std::string dump = DumpMemoryHierarchy();
  EXPECT_NE(dump.find("process: current="), std::string::npos) << dump;
  EXPECT_NE(dump.find("session dump-probe:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("cumulative=64B"), std::string::npos) << dump;
}

// ---------- Accounted bytes vs. live container contents ----------

TEST(MemoryTrackerTest, LogicalBytesBoundLiveContainers) {
  // Logical sizes must cover at least the row headers and every owned
  // string payload — the dominant live allocations of a materialized
  // table. (They deliberately exclude allocator slack, which is what makes
  // them deterministic.)
  Schema schema({Field("id", TypeId::kInt64, /*nullable=*/false),
                 Field("name", TypeId::kString, /*nullable=*/false)});
  std::vector<Row> rows;
  int64_t string_payload = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string name(static_cast<size_t>(i % 17) + 1, 'x');
    string_payload += static_cast<int64_t>(name.size());
    rows.push_back(Row({I(i), S(name)}));
  }
  Table table(schema, std::move(rows));
  const int64_t lower_bound =
      table.num_rows() * static_cast<int64_t>(sizeof(Row)) + string_payload;
  EXPECT_GE(TableBytes(table), lower_bound);
  // And per row: RowBytes covers the header plus each value header.
  const Row& r = table.rows().front();
  EXPECT_GE(RowBytes(r),
            static_cast<int64_t>(sizeof(Row)) +
                static_cast<int64_t>(r.values().size() * sizeof(Value)));
  EXPECT_EQ(ValueBytes(S("abcd")),
            static_cast<int64_t>(sizeof(Value)) + 4);
}

// ---------- End-to-end properties on TPC-H ----------

class MemoryTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale = 0.04;
    config.declare_not_null = true;
    ASSERT_OK(PopulateTpch(&catalog_, config));
  }

  std::string Query1Sql() {
    const Table* orders = *catalog_.GetTable("orders");
    const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.2);
    const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.8);
    return MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64()));
  }

  static std::string Query2aSql() {
    return MakeQuery2(10, 40, 5000, 25, OuterLink::kAny,
                      InnerLink::kNotExists);
  }

  Catalog catalog_;
};

// One probe and one hand-off at every thread count: the reported peak is
// run-to-run deterministic and the same at threads {1,2,8}.
TEST_F(MemoryTpchTest, PeakIsRunToRunDeterministic) {
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"Q1", Query1Sql()},
      {"Q2a", Query2aSql()},
      {"Q3b", MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                         InnerLink::kNotExists, Query3Variant::kVariantB)},
  };
  for (const auto& [name, sql] : queries) {
    int64_t one_thread_peak = -1;
    for (const int threads : {1, 2, 8}) {
      NraOptions opts;
      opts.num_threads = threads;
      int64_t ref_peak = -1;
      for (int run = 0; run < 3; ++run) {
        NraExecutor exec(catalog_, opts);
        NraStats stats;
        ASSERT_OK_AND_ASSIGN(Table result, exec.ExecuteSql(sql, &stats));
        ASSERT_GT(result.num_rows(), 0) << name;
        EXPECT_GT(stats.peak_mem_bytes, 0) << name << " threads=" << threads;
        if (run == 0) {
          ref_peak = stats.peak_mem_bytes;
        } else {
          EXPECT_EQ(stats.peak_mem_bytes, ref_peak)
              << name << " threads=" << threads << " run=" << run;
        }
      }
      if (threads == 1) {
        one_thread_peak = ref_peak;
      } else {
        EXPECT_EQ(ref_peak, one_thread_peak)
            << name << " threads=" << threads << " vs threads=1";
      }
    }
  }
}

// The magic-set semijoin is a profiled stage: its build, chains and result
// reach the stage peak and EXPLAIN ANALYZE shows its operator tree.
TEST_F(MemoryTpchTest, MagicStageAccountsItsSemijoin) {
  NraOptions opts;
  opts.magic_restriction = true;
  opts.profile = true;
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  NraStats stats;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query2aSql(), &stats, &profile));
  ASSERT_GT(result.num_rows(), 0);
  int magic_stages = 0;
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.label.rfind("magic[", 0) != 0) continue;
    ++magic_stages;
    EXPECT_GT(stage.mem_bytes, 0) << stage.label;
    EXPECT_GT(stage.peak_mem_bytes, stage.mem_bytes) << stage.label;
    EXPECT_LE(stage.peak_mem_bytes, stats.peak_mem_bytes) << stage.label;
    ASSERT_TRUE(stage.has_tree) << stage.label;
    EXPECT_EQ(stage.tree.name, "HashJoin[LeftSemi]") << stage.label;
  }
  EXPECT_GT(magic_stages, 0) << profile.ToString();
}

TEST_F(MemoryTpchTest, ExplainAnalyzeShowsPerStageMemMatchingJson) {
  NraOptions opts;
  opts.profile = true;
  opts.num_threads = 1;
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  NraStats stats;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query1Sql(), &stats, &profile));
  (void)result;

  const std::string text = profile.ToString();
  const std::string json = profile.ToJson();
  // The query total appears in both renderings and equals NraStats.
  EXPECT_GT(profile.peak_mem_bytes, 0);
  EXPECT_EQ(profile.peak_mem_bytes, stats.peak_mem_bytes);
  EXPECT_NE(text.find("peak_mem=" + std::to_string(profile.peak_mem_bytes) +
                      "B"),
            std::string::npos)
      << text;
  EXPECT_NE(json.find("\"peak_mem_bytes\":" +
                      std::to_string(profile.peak_mem_bytes)),
            std::string::npos)
      << json;

  // Every stage's materialized result reports its bytes.
  for (const ProfiledStage& stage : profile.stages()) {
    EXPECT_GT(stage.mem_bytes, 0)
        << "stage " << stage.label << " reports no result bytes";
  }
  // Every stage that materializes reports bytes, and text and JSON agree
  // number for number. Query 1 runs hash joins, the fused path's sort, and
  // nest work — all covered by the stage list.
  int stages_with_mem = 0;
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.peak_mem_bytes == 0) continue;
    ++stages_with_mem;
    EXPECT_NE(text.find(" mem=" + std::to_string(stage.mem_bytes) +
                        " peak=" + std::to_string(stage.peak_mem_bytes)),
              std::string::npos)
        << stage.label << "\n"
        << text;
    EXPECT_NE(json.find("\"mem_bytes\":" + std::to_string(stage.mem_bytes) +
                        ",\"peak_bytes\":" +
                        std::to_string(stage.peak_mem_bytes)),
              std::string::npos)
        << stage.label << "\n"
        << json;
    // A stage's footprint can never exceed the query peak.
    EXPECT_LE(stage.peak_mem_bytes, profile.peak_mem_bytes) << stage.label;
  }
  EXPECT_GT(stages_with_mem, 0) << text;

  // Per-operator annotations: the join/sort trees expose their own peaks,
  // and the rendered tree carries mem=/peak= for them.
  bool saw_operator_peak = false;
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.has_tree && stage.tree.stats.peak_mem_bytes > 0) {
      saw_operator_peak = true;
    }
    for (const ProfiledOperator& child : stage.tree.children) {
      if (child.stats.peak_mem_bytes > 0) saw_operator_peak = true;
    }
  }
  EXPECT_TRUE(saw_operator_peak);
}

TEST_F(MemoryTpchTest, LimitOffChangesNothing) {
  const std::string sql = Query1Sql();
  Table no_limit_result;
  NraStats no_limit_stats;
  {
    NraOptions opts;  // max_query_mem defaults to 0 (off)
    NraExecutor exec(catalog_, opts);
    ASSERT_OK_AND_ASSIGN(no_limit_result,
                         exec.ExecuteSql(sql, &no_limit_stats));
  }
  {
    NraOptions opts;
    opts.max_query_mem = int64_t{1} << 40;  // on, but unreachable
    NraExecutor exec(catalog_, opts);
    NraStats stats;
    ASSERT_OK_AND_ASSIGN(Table result, exec.ExecuteSql(sql, &stats));
    EXPECT_TRUE(Table::BagEquals(no_limit_result, result));
    EXPECT_EQ(stats.peak_mem_bytes, no_limit_stats.peak_mem_bytes);
  }
}

TEST_F(MemoryTpchTest, TinyLimitFailsWithResourceExhausted) {
  NraOptions opts;
  opts.max_query_mem = 64;  // no real query fits in 64 accounted bytes
  NraExecutor exec(catalog_, opts);
  NraStats stats;
  const Result<Table> result = exec.ExecuteSql(Query1Sql(), &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("max_query_mem"),
            std::string::npos)
      << result.status().ToString();
}

// ---------- Concurrent limited sessions through the server layer ----------

TEST_F(MemoryTpchTest, ConcurrentSessionsEnforceLimitsIndependently) {
  ServerOptions server_options;
  server_options.max_in_flight = 4;  // force some queries to queue
  ConnectionManager manager(&catalog_, server_options);
  const std::string sql = Query1Sql();

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.Connect());
    // Even sessions run unlimited, odd sessions get an impossible limit.
    if (i % 2 == 1) sessions.back()->options().max_query_mem = 64;
  }

  std::atomic<int> ok_count{0};
  std::atomic<int> exhausted_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      const Result<Table> result = sessions[static_cast<size_t>(i)]->Query(sql);
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        exhausted_count.fetch_add(1);
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kSessions / 2);
  EXPECT_EQ(exhausted_count.load(), kSessions / 2);
  EXPECT_EQ(other_count.load(), 0);

  // No torn state: every admission ticket was released (failed queries
  // included), the in-flight gauge is back to zero, and the gate's
  // high-water mark respected the configured bound.
  const AdmissionController& admission = manager.admission();
  EXPECT_EQ(admission.in_flight(), 0);
  EXPECT_EQ(admission.admitted_total(), kSessions);
  EXPECT_LE(admission.peak_in_flight(), server_options.max_in_flight);

  // Session roll-ups: the unlimited sessions folded real peaks; every
  // session's live bytes drained back to zero.
  for (int i = 0; i < kSessions; ++i) {
    const SessionMemoryTracker& mem = sessions[static_cast<size_t>(i)]->memory();
    EXPECT_EQ(mem.current(), 0) << "session " << i;
    EXPECT_GE(mem.queries(), 1) << "session " << i;
    if (i % 2 == 0) {
      EXPECT_GT(mem.cumulative(), 0) << "session " << i;
    }
  }

  // And the unlimited sessions all saw the same deterministic peak.
  int64_t ref_peak = -1;
  for (int i = 0; i < kSessions; i += 2) {
    const int64_t peak = sessions[static_cast<size_t>(i)]->memory().peak();
    if (ref_peak < 0) {
      ref_peak = peak;
    } else {
      EXPECT_EQ(peak, ref_peak) << "session " << i;
    }
  }
}

}  // namespace
}  // namespace nestra
