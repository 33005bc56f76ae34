// Determinism and correctness of the stage-DAG executor (DESIGN.md §11):
// for every query and option set, running at threads {2, 8} must produce
// results ROW-EXACTLY equal to the 1-thread run — same row order, same value representations — with an identical EXPLAIN
// ANALYZE stage list and identical deterministic NraStats. At one thread
// the DAG runs its tasks inline in creation order (the serial schedule);
// with more, independent pipelines overlap on the shared pool, which
// changes only *when* whole stages run, never what they produce. Every
// result is also checked as a bag against the independent nested-iteration
// oracle, so agreement across thread counts cannot hide a wrong answer.
//
// Also covered here: the StageDag scheduler itself (error-first semantics,
// failure-skip cascades, stats merging) and the PipelineRole operator
// classification that documents where pipeline boundaries fall.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/nested_iteration.h"
#include "common/date.h"
#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "nested/fused_nest_select.h"
#include "nra/executor.h"
#include "nra/pipeline.h"
#include "nra/profile.h"
#include "query_generator.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::QueryGenerator;

constexpr int kThreadDegrees[] = {1, 2, 8};

void ExpectRowExact(const Table& serial, const Table& parallel,
                    const std::string& context) {
  ASSERT_EQ(serial.num_rows(), parallel.num_rows()) << context;
  for (int64_t i = 0; i < serial.num_rows(); ++i) {
    ASSERT_TRUE(serial.rows()[static_cast<size_t>(i)] ==
                parallel.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i << "\n1 thread:\n"
        << serial.ToString() << "parallel:\n"
        << parallel.ToString();
  }
}

void ExpectSameStages(const QueryProfile& serial,
                      const QueryProfile& parallel,
                      const std::string& context) {
  ASSERT_EQ(serial.stages().size(), parallel.stages().size()) << context;
  for (size_t i = 0; i < serial.stages().size(); ++i) {
    const ProfiledStage& s = serial.stages()[i];
    const ProfiledStage& p = parallel.stages()[i];
    EXPECT_EQ(s.label, p.label) << context << " (stage " << i << ")";
    EXPECT_EQ(s.phase, p.phase) << context << " (stage " << i << ")";
    EXPECT_EQ(s.rows_out, p.rows_out) << context << " (stage " << i << ")";
  }
}

std::vector<std::pair<std::string, NraOptions>> OptionVariants() {
  std::vector<std::pair<std::string, NraOptions>> configs;
  configs.emplace_back("optimized", NraOptions::Optimized());
  configs.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    o.bottom_up_linear = true;
    configs.emplace_back("all-rewrites", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    configs.emplace_back("magic", o);
  }
  return configs;
}

void CheckThreadsAgreeWithOracle(const Catalog& catalog,
                                 const std::string& sql) {
  NestedIterationExecutor oracle(catalog, {.use_indexes = false});
  Result<Table> expected = oracle.ExecuteSql(sql);
  ASSERT_TRUE(expected.ok()) << sql << ": " << expected.status().ToString();
  for (const auto& [name, base] : OptionVariants()) {
    const std::string config = name + "/threads=";
    NraOptions opts = base;
    opts.profile = true;
    opts.num_threads = 1;
    NraExecutor serial_exec(catalog, opts);
    QueryProfile serial_profile;
    NraStats serial_stats;
    Result<Table> serial =
        serial_exec.ExecuteSql(sql, &serial_stats, &serial_profile);
    ASSERT_TRUE(serial.ok())
        << config << "1\n" << sql << ": " << serial.status().ToString();
    EXPECT_TRUE(Table::BagEquals(*expected, *serial))
        << config << "1\n" << sql << "\noracle:\n" << expected->ToString()
        << "nra:\n" << serial->ToString();

    for (const int threads : kThreadDegrees) {
      if (threads == 1) continue;
      const std::string context =
          config + std::to_string(threads) + "\n" + sql;
      opts.num_threads = threads;
      NraExecutor exec(catalog, opts);
      QueryProfile profile;
      NraStats stats;
      Result<Table> parallel = exec.ExecuteSql(sql, &stats, &profile);
      ASSERT_TRUE(parallel.ok())
          << context << ": " << parallel.status().ToString();

      ExpectRowExact(*serial, *parallel, context);
      ExpectSameStages(serial_profile, profile, context);
      // The deterministic NraStats fields must agree too (timings are
      // wall-clock and may not).
      EXPECT_EQ(serial_stats.intermediate_rows, stats.intermediate_rows)
          << context;
      EXPECT_EQ(serial_stats.output_rows, stats.output_rows) << context;
    }
  }
}

// ---------- The paper's experiment queries on TPC-H data ----------

class PipelinedTpchTest : public ::testing::Test {
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

  Catalog catalog_;
};

TEST_F(PipelinedTpchTest, Query1) {
  CheckThreadsAgreeWithOracle(catalog_, Query1Sql());
}

TEST_F(PipelinedTpchTest, Query2aMixed) {
  CheckThreadsAgreeWithOracle(
      catalog_,
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists));
}

TEST_F(PipelinedTpchTest, Query2bNegative) {
  CheckThreadsAgreeWithOracle(
      catalog_,
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAll, InnerLink::kNotExists));
}

TEST_F(PipelinedTpchTest, Query3aMixed) {
  CheckThreadsAgreeWithOracle(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kExists, Query3Variant::kVariantA));
}

TEST_F(PipelinedTpchTest, Query3bNegative) {
  CheckThreadsAgreeWithOracle(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kNotExists, Query3Variant::kVariantB));
}

TEST_F(PipelinedTpchTest, Query3cPositive) {
  CheckThreadsAgreeWithOracle(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAny,
                           InnerLink::kExists, Query3Variant::kVariantC));
}

// Query 1's `> ALL` link over NOT NULL columns runs as the proven-2VL
// antijoin; that stage's output is the query's widest intermediate, so
// NraStats::intermediate_rows must report it (the paper's main parameter)
// rather than 0, at every thread count.
TEST(PipelinedStatsTest, TwoValuedAntijoinReportsIntermediateRows) {
  Catalog catalog;
  TpchConfig config;
  config.scale = 1;
  config.declare_not_null = true;
  ASSERT_OK(PopulateTpch(&catalog, config));
  const Table* orders = *catalog.GetTable("orders");
  const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.2);
  const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.8);
  const std::string sql =
      MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64()));
  for (const int threads : kThreadDegrees) {
    NraOptions opts = NraOptions::Optimized();
    opts.profile = true;
    opts.num_threads = threads;
    NraExecutor exec(catalog, opts);
    QueryProfile profile;
    NraStats stats;
    ASSERT_OK(exec.ExecuteSql(sql, &stats, &profile).status());
    int64_t join_rows = -1;
    for (const ProfiledStage& stage : profile.stages()) {
      if (stage.label == "join[b2]") join_rows = stage.rows_out;
    }
    ASSERT_GT(join_rows, 0) << "threads=" << threads << "\n"
                            << profile.ToString();
    EXPECT_EQ(stats.intermediate_rows, join_rows) << "threads=" << threads;
  }
}

// ---------- The sort-free fused chain ----------

// The root operator of stage `label` in `profile`.
const ProfiledOperator* StageTree(const QueryProfile& profile,
                               const std::string& label) {
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.label == label) return &stage.tree;
  }
  return nullptr;
}

// A keyed three-level chain above kCostMinBuildRows, so the cost model
// swaps the build side of the first join (b dwarfs a) and keeps the default
// probe for the second (c is smaller than the join result). Both joins run
// in several morsels at more than one thread. The fused pass reads their
// output with no sort, so its row order is the join chain's: it must be the
// same at every thread count, and bag-equal to the oracle. NULLs in the
// linked columns keep both links three-valued (no antijoin bypass).
TEST(PipelinedSortFreeChainTest, SwappedAndDefaultProbesGroupEveryLevel) {
  constexpr int64_t kOuter = 300;
  constexpr int64_t kMiddle = 6000;
  constexpr int64_t kLeaf = 3000;
  auto maybe_null = [](int64_t i, int64_t v) {
    return i % 17 == 0 ? testing_util::N() : testing_util::I(v);
  };
  std::vector<std::vector<Value>> a, b, c;
  for (int64_t i = 0; i < kOuter; ++i) {
    a.push_back({testing_util::I(i), maybe_null(i, i % 40)});
  }
  for (int64_t i = 0; i < kMiddle; ++i) {
    b.push_back({testing_util::I(i), testing_util::I((i * 7) % kOuter),
                 maybe_null(i, i % 50), testing_util::I(i % 23)});
  }
  for (int64_t i = 0; i < kLeaf; ++i) {
    c.push_back({testing_util::I(i), testing_util::I((i * 13) % kMiddle),
                 maybe_null(i, i % 29)});
  }
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable(
      "a", testing_util::MakeTable({"ak", "av"}, a), "ak"));
  ASSERT_OK(catalog.RegisterTable(
      "b", testing_util::MakeTable({"bk", "ba", "bv", "bw"}, b), "bk"));
  ASSERT_OK(catalog.RegisterTable(
      "c", testing_util::MakeTable({"ck", "cb", "cv"}, c), "ck"));
  const std::string sql =
      "select a.ak, a.av from a where a.av not in (select b.bv from b "
      "where b.ba = a.ak and b.bw > all (select c.cv from c "
      "where c.cb = b.bk))";

  for (const int threads : kThreadDegrees) {
    NraOptions opts = NraOptions::Optimized();
    opts.profile = true;
    opts.num_threads = threads;
    NraExecutor exec(catalog, opts);
    QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(Table out, exec.ExecuteSql(sql, nullptr, &profile));
    const std::string context =
        "threads=" + std::to_string(threads) + "\n" + profile.ToString();
    // Both outcomes of the outer link occur.
    EXPECT_GT(out.num_rows(), 0) << context;
    EXPECT_LT(out.num_rows(), kOuter) << context;
    const ProfiledOperator* swapped = StageTree(profile, "join[b2]");
    const ProfiledOperator* probed = StageTree(profile, "join[b3]");
    ASSERT_NE(swapped, nullptr) << context;
    ASSERT_NE(probed, nullptr) << context;
    EXPECT_NE(swapped->detail.find("build=left"), std::string::npos)
        << context;
    EXPECT_EQ(probed->detail.find("build=left"), std::string::npos)
        << context;
    const ProfiledOperator* fused = StageTree(profile, "fused nest+select");
    ASSERT_NE(fused, nullptr) << context;
    ASSERT_EQ(fused->children.size(), 1u) << context;
    EXPECT_EQ(fused->children[0].name, "TableSource") << context;
  }
  CheckThreadsAgreeWithOracle(catalog, sql);
}

// ---------- Fuzzed query corpus ----------

class PipelinedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinedFuzzTest, ThreadsAreBitIdenticalAndMatchOracle) {
  QueryGenerator gen(GetParam());
  Catalog catalog;
  gen.PopulateTables(&catalog);

  for (int i = 0; i < 8; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    CheckThreadsAgreeWithOracle(catalog, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------- StageDag scheduler unit tests ----------

TEST(StageDagTest, RunsTasksRespectingDependencies) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<int> order{0};
    std::vector<int> seen(3, -1);
    const int a = dag.AddTask("a", {}, [&](NraStats*, QueryProfile*) {
      seen[0] = order.fetch_add(1);
      return Status::OK();
    });
    const int b = dag.AddTask("b", {a}, [&](NraStats*, QueryProfile*) {
      seen[1] = order.fetch_add(1);
      return Status::OK();
    });
    dag.AddTask("c", {a, b}, [&](NraStats*, QueryProfile*) {
      seen[2] = order.fetch_add(1);
      return Status::OK();
    });
    ASSERT_OK(dag.Run(threads, nullptr, nullptr));
    EXPECT_LT(seen[0], seen[1]) << "threads=" << threads;
    EXPECT_LT(seen[1], seen[2]) << "threads=" << threads;
  }
}

TEST(StageDagTest, IndependentTasksAllRunAndStatsMerge) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      dag.AddTask("t" + std::to_string(i), {},
                  [&, i](NraStats* s, QueryProfile*) {
                    ran.fetch_add(1);
                    s->join_seconds += 1.0;
                    s->intermediate_rows = i;
                    return Status::OK();
                  });
    }
    NraStats stats;
    ASSERT_OK(dag.Run(threads, &stats, nullptr));
    EXPECT_EQ(ran.load(), 16) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(stats.join_seconds, 16.0) << "threads=" << threads;
    EXPECT_EQ(stats.intermediate_rows, 15) << "threads=" << threads;
  }
}

TEST(StageDagTest, FailureSkipsDependentsAndSurfacesFirstError) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<bool> dependent_ran{false};
    const int bad = dag.AddTask("bad", {}, [](NraStats*, QueryProfile*) {
      return Status::Internal("boom");
    });
    const int child =
        dag.AddTask("child", {bad}, [&](NraStats*, QueryProfile*) {
          dependent_ran.store(true);
          return Status::OK();
        });
    dag.AddTask("grandchild", {child}, [&](NraStats*, QueryProfile*) {
      dependent_ran.store(true);
      return Status::OK();
    });
    const Status s = dag.Run(threads, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_NE(s.ToString().find("boom"), std::string::npos)
        << "threads=" << threads;
    EXPECT_FALSE(dependent_ran.load()) << "threads=" << threads;
  }
}

TEST(StageDagTest, ProfilesMergeInCreationOrder) {
  // Two independent tasks can complete in either real-time order under a
  // parallel schedule, but the merged profile must always list stages in
  // task-creation order — that is the whole bit-identity contract.
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    dag.AddTask("first", {}, [](NraStats*, QueryProfile* p) {
      StageTimer timer(p, QueryPhase::kUnnestJoin, "stage-first");
      timer.Finish(1);
      return Status::OK();
    });
    dag.AddTask("second", {}, [](NraStats*, QueryProfile* p) {
      StageTimer timer(p, QueryPhase::kNest, "stage-second");
      timer.Finish(2);
      return Status::OK();
    });
    QueryProfile profile;
    ASSERT_OK(dag.Run(threads, nullptr, &profile));
    ASSERT_EQ(profile.stages().size(), 2u) << "threads=" << threads;
    EXPECT_EQ(profile.stages()[0].label, "stage-first");
    EXPECT_EQ(profile.stages()[1].label, "stage-second");
    EXPECT_EQ(profile.stages()[0].rows_out, 1);
    EXPECT_EQ(profile.stages()[1].rows_out, 2);
  }
}

// ---------- PipelineRole classification ----------

TEST(PipelineRoleTest, OperatorsReportTheirDocumentedRoles) {
  const Schema schema{{{"a", TypeId::kInt64, false}}};
  Table table{schema};
  auto source = [&] { return std::make_unique<TableSourceNode>(table); };

  EXPECT_EQ(source()->role(), PipelineRole::kSource);
  EXPECT_EQ(ScanNode(&table, "t").role(), PipelineRole::kSource);
  EXPECT_EQ(SortNode(source(), {{"a", true}}, 1).role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(AggregateNode(source(), {"a"}, {}).role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(DistinctNode(source()).role(), PipelineRole::kSerialStreaming);
  EXPECT_EQ(LimitNode(source(), 1).role(), PipelineRole::kSerialStreaming);
  EXPECT_EQ(HashJoinNode(source(), source(), JoinType::kInner, {}, nullptr)
                .role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(FusedNestSelectNode(source(), {}).role(),
            PipelineRole::kSerialStreaming);

  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kSource), "source");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kStreaming), "streaming");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kSerialStreaming),
               "serial-streaming");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kBreaker), "breaker");
}

}  // namespace
}  // namespace nestra
