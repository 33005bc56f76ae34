#include <gtest/gtest.h>

#include "exec/hash_join.h"
#include "exec/nested_loop_join.h"
#include "exec/scan.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

// Helper that builds the join over distinctly named columns.
struct JoinFixture {
  Table left = MakeTable({"l.k", "l.v"},
                         {{I(1), I(10)}, {I(2), I(20)}, {N(), I(30)},
                          {I(4), I(40)}});
  Table right = MakeTable({"r.k", "r.w"},
                          {{I(1), I(100)}, {I(1), I(101)}, {N(), I(102)},
                           {I(4), I(103)}});

  Result<Table> Run(JoinType type, ExprPtr residual = nullptr) {
    auto l = std::make_unique<TableSourceNode>(left);
    auto r = std::make_unique<TableSourceNode>(right);
    HashJoinNode join(std::move(l), std::move(r), type, {{"l.k", "r.k"}},
                      std::move(residual));
    return CollectTable(&join);
  }
};

TEST(HashJoinTest, InnerSkipsNullKeys) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kInner));
  // (1,1),(1,1),(4,4): 3 matches; NULL keys never match.
  EXPECT_EQ(out.num_rows(), 3);
}

TEST(HashJoinTest, LeftOuterPadsNonMatching) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftOuter));
  // 3 matches + padded rows for l.k=2 and l.k=NULL.
  EXPECT_EQ(out.num_rows(), 5);
  int padded = 0;
  for (const Row& r : out.rows()) {
    if (r[2].is_null() && r[3].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 2);
}

TEST(HashJoinTest, LeftSemiEmitsEachLeftOnce) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftSemi));
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(1), I(10)}, {I(4), I(40)}}),
                    out);
}

TEST(HashJoinTest, LeftAntiKeepsNullKeyRows) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAnti));
  // The classical antijoin: UNKNOWN counts as "no match", so the NULL-key
  // left row survives — the precise behaviour that makes antijoin != NOT IN.
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(2), I(20)}, {N(), I(30)}}),
                    out);
}

TEST(HashJoinTest, NullAwareAntiDropsEverythingWhenBuildHasNullKey) {
  JoinFixture f;
  // Build side contains a NULL key => NOT IN semantics: every probe row is
  // UNKNOWN or matched, nothing survives.
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(HashJoinTest, NullAwareAntiWithoutBuildNulls) {
  JoinFixture f;
  f.right = MakeTable({"r.k", "r.w"}, {{I(1), I(100)}});
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  // l.k=2 and l.k=4 not in {1}: kept. l.k=NULL: UNKNOWN: dropped.
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(2), I(20)}, {I(4), I(40)}}),
                    out);
}

TEST(HashJoinTest, NullAwareAntiEmptyBuildKeepsAll) {
  JoinFixture f;
  f.right = MakeTable({"r.k", "r.w"}, {});
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  EXPECT_EQ(out.num_rows(), 4);  // NOT IN over the empty set is TRUE
}

TEST(HashJoinTest, ResidualPredicate) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(
      Table out,
      f.Run(JoinType::kInner, Cmp(CmpOp::kGt, Col("r.w"), LitInt(100))));
  // Only (1,101) and (4,103) pass the residual.
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(HashJoinTest, NoEquiPairsIsCrossWithCondition) {
  auto l = std::make_unique<TableSourceNode>(
      MakeTable({"l.a"}, {{I(1)}, {I(5)}}));
  auto r = std::make_unique<TableSourceNode>(
      MakeTable({"r.b"}, {{I(3)}, {I(4)}}));
  HashJoinNode join(std::move(l), std::move(r), JoinType::kInner, {},
                    Cmp(CmpOp::kLt, Col("l.a"), Col("r.b")));
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&join));
  EXPECT_EQ(out.num_rows(), 2);  // (1,3) and (1,4)
}

// ---------------------------------------------------------------------------
// Build-strategy matrix. JoinBuildHints may ask for a perfect (dense) slot
// range and/or a left-side build; whatever the hints or the thread count,
// the join must emit exactly the rows of the default serial run, in the
// same order.

// Join inputs with keys spanning [0, key_max] on both sides. Each side has
// `p.k`/`p.k2` int64 keys (duplicates and NULLs), `p.f` the key as float64
// (some non-integral) and `p.<payload>` a small int64 with NULLs for the
// residual. The right side's float key is never NULL, so NOT IN over it
// sees a NULL-free build. Both sides hold 0 and key_max, so [0, key_max] is
// the exact perfect range.
struct MatrixInputs {
  MatrixInputs(int64_t left_rows, int64_t right_rows, int64_t key_max_in)
      : key_max(key_max_in),
        left(MakeSide("l", "v", left_rows, 7)),
        right(MakeSide("r", "w", right_rows, 11)) {}

  Table MakeSide(const std::string& p, const std::string& payload,
                 int64_t rows, uint64_t seed) const {
    uint64_t s = seed;
    const auto next = [&s](int64_t mod) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<int64_t>((s >> 33) % static_cast<uint64_t>(mod));
    };
    Table t{Schema({Field(p + ".k", TypeId::kInt64),
                    Field(p + ".k2", TypeId::kInt64),
                    Field(p + ".f", TypeId::kFloat64),
                    Field(p + "." + payload, TypeId::kInt64)})};
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t k = i == 0 ? 0 : i == 1 ? key_max : next(key_max + 1);
      const bool null_k = i > 1 && next(16) == 0;
      const bool half = next(8) == 0;
      Value f = Value::Float64(static_cast<double>(k) + (half ? 0.5 : 0.0));
      if (null_k && p == "l") f = N();
      const Value k2 = next(20) == 0 ? N() : I(next(3));
      const Value v = next(10) == 0 ? N() : I(next(5));
      t.AppendUnchecked(Row({null_k ? N() : I(k), k2, f, v}));
    }
    return t;
  }

  int64_t key_max;
  Table left;
  Table right;
};

// Small inputs for the full matrix: one morsel per side.
MatrixInputs SmallInputs() { return MatrixInputs(160, 140, 79); }

// Both sides exceed one 1024-row morsel, so threads > 1 really split the
// build hashing, the probe and the mirrored right-side stream.
MatrixInputs MorselSplitInputs() { return MatrixInputs(1100, 1040, 299); }

struct EquiCase {
  const char* name;
  std::vector<EquiPair> equi;
  bool build_has_null_key;  // then NOT IN keeps no row
};

std::vector<EquiCase> MatrixEquis() {
  return {{"k=k", {{"l.k", "r.k"}}, true},
          {"int probe, float build", {{"l.k", "r.f"}}, false},
          {"float probe, int build", {{"l.f", "r.k"}}, true},
          {"two keys", {{"l.k", "r.k"}, {"l.k2", "r.k2"}}, true}};
}

JoinBuildHints PerfectHints(int64_t min, int64_t max, bool build_left) {
  JoinBuildHints h;
  h.perfect = true;
  h.perfect_min = min;
  h.perfect_max = max;
  h.build_left = build_left;
  return h;
}

// On the two-key join the "perfect" entries are a perfect hint the join
// must ignore; the stale range excludes a real key.
std::vector<std::pair<std::string, JoinBuildHints>> MatrixHints(
    int64_t key_max) {
  JoinBuildHints build_left;
  build_left.build_left = true;
  return {{"default", JoinBuildHints{}},
          {"perfect", PerfectHints(0, key_max, false)},
          {"stale perfect", PerfectHints(0, key_max - 1, false)},
          {"build_left", build_left},
          {"build_left+perfect", PerfectHints(0, key_max, true)}};
}

constexpr JoinType kAllJoinTypes[] = {
    JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi,
    JoinType::kLeftAnti, JoinType::kLeftAntiNullAware};

ExprPtr MatrixResidual(bool on) {
  return on ? Cmp(CmpOp::kNe, Col("l.v"), Col("r.w")) : nullptr;
}

struct JoinRun {
  Table out;
  std::string detail;
  int64_t peak_mem_bytes = 0;
};

Result<JoinRun> RunMatrixJoin(const MatrixInputs& in,
                              const std::vector<EquiPair>& equi,
                              JoinType type, bool residual, int threads,
                              const JoinBuildHints& hints) {
  HashJoinNode join(std::make_unique<TableSourceNode>(in.left),
                    std::make_unique<TableSourceNode>(in.right), type, equi,
                    MatrixResidual(residual), threads, hints);
  JoinRun run;
  NESTRA_ASSIGN_OR_RETURN(run.out, CollectTable(&join));
  run.detail = join.detail();
  run.peak_mem_bytes = join.stats().peak_mem_bytes;
  return run;
}

// Runs every hint set at each thread count and expects the rows of `base`
// (the default-hints serial run), row for row.
void ExpectEveryStrategyMatches(const MatrixInputs& in, const EquiCase& eq,
                                JoinType type, bool residual,
                                std::initializer_list<int> thread_counts,
                                const JoinRun& base,
                                const std::string& base_ctx) {
  for (const auto& [hint_name, hints] : MatrixHints(in.key_max)) {
    for (const int threads : thread_counts) {
      const std::string ctx = base_ctx + " hints=" + hint_name +
                              " threads=" + std::to_string(threads);
      ASSERT_OK_AND_ASSIGN(
          JoinRun run,
          RunMatrixJoin(in, eq.equi, type, residual, threads, hints));
      ASSERT_TRUE(run.out.schema().Equals(base.out.schema())) << ctx;
      ASSERT_EQ(run.out.num_rows(), base.out.num_rows()) << ctx;
      ASSERT_TRUE(run.out.rows() == base.out.rows()) << ctx;
    }
  }
}

TEST(HashJoinStrategyTest, EveryStrategyMatchesTheDefaultSerialRun) {
  const MatrixInputs in = SmallInputs();
  for (const EquiCase& eq : MatrixEquis()) {
    for (const JoinType type : kAllJoinTypes) {
      for (const bool residual : {false, true}) {
        const std::string ctx = std::string(eq.name) + " " +
                                JoinTypeToString(type) +
                                (residual ? " +residual" : "");
        ASSERT_OK_AND_ASSIGN(JoinRun base,
                             RunMatrixJoin(in, eq.equi, type, residual, 1,
                                           JoinBuildHints{}));
        if (type != JoinType::kLeftAntiNullAware || !eq.build_has_null_key) {
          ASSERT_GT(base.out.num_rows(), 0) << ctx;
        }
        if (type != JoinType::kLeftAntiNullAware) {
          std::vector<ExprPtr> conds;
          for (const EquiPair& p : eq.equi) {
            conds.push_back(Eq(Col(p.left), Col(p.right)));
          }
          if (residual) conds.push_back(MatrixResidual(true));
          NestedLoopJoinNode nlj(std::make_unique<TableSourceNode>(in.left),
                                 std::make_unique<TableSourceNode>(in.right),
                                 type, MakeAnd(std::move(conds)));
          ASSERT_OK_AND_ASSIGN(Table oracle, CollectTable(&nlj));
          ASSERT_TRUE(Table::BagEquals(oracle, base.out)) << ctx;
        }
        ExpectEveryStrategyMatches(in, eq, type, residual, {1, 2, 8}, base,
                                   ctx);
      }
    }
  }
}

TEST(HashJoinStrategyTest, SplitMorselsMatchTheDefaultSerialRun) {
  const MatrixInputs in = MorselSplitInputs();
  const EquiCase eq = MatrixEquis()[0];
  for (const JoinType type : kAllJoinTypes) {
    for (const bool residual : {false, true}) {
      const std::string ctx = std::string(JoinTypeToString(type)) +
                              (residual ? " +residual" : "");
      ASSERT_OK_AND_ASSIGN(JoinRun base,
                           RunMatrixJoin(in, eq.equi, type, residual, 1,
                                         JoinBuildHints{}));
      ExpectEveryStrategyMatches(in, eq, type, residual, {8}, base, ctx);
    }
  }
}

TEST(HashJoinStrategyTest, DetailReportsTheTableActuallyBuilt) {
  const MatrixInputs in = SmallInputs();
  const int64_t max = in.key_max;
  const std::vector<EquiPair> one_key = {{"l.k", "r.k"}};
  const std::vector<EquiPair> two_keys = {{"l.k", "r.k"}, {"l.k2", "r.k2"}};
  const auto detail = [&](const std::vector<EquiPair>& equi,
                          const JoinBuildHints& hints) {
    Result<JoinRun> run =
        RunMatrixJoin(in, equi, JoinType::kInner, false, 1, hints);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run.ValueOrDie().detail : std::string("<error>");
  };
  EXPECT_EQ(detail(one_key, JoinBuildHints{}), "");
  EXPECT_EQ(detail(one_key, PerfectHints(0, max, false)), "perfect");
  EXPECT_EQ(detail(one_key, PerfectHints(0, max, true)),
            "build=left,perfect");
  // The stale range excludes key_max, so the build falls back to hashing;
  // a multi-key join never keys a dense range at all.
  EXPECT_EQ(detail(one_key, PerfectHints(0, max - 1, false)), "");
  EXPECT_EQ(detail(one_key, PerfectHints(0, max - 1, true)), "build=left");
  EXPECT_EQ(detail(two_keys, PerfectHints(0, max, false)), "");
}

// Row pulls (Next) are served from the join's batch evaluator through
// ExecNode::NextRowFromBatch; they must hand out exactly the batch drain's
// rows for the streaming probe (1 thread) and the materialized results
// (parallel probe, mirrored build) alike.
TEST(HashJoinStrategyTest, RowPullsMatchTheBatchDrain) {
  const MatrixInputs in = MorselSplitInputs();
  const std::vector<EquiPair> one_key = {{"l.k", "r.k"}};
  for (const auto& [hint_name, hints] : MatrixHints(in.key_max)) {
    for (const int threads : {1, 8}) {
      for (const JoinType type : kAllJoinTypes) {
        const std::string ctx = hint_name + " threads=" +
                                std::to_string(threads) + " " +
                                JoinTypeToString(type);
        ASSERT_OK_AND_ASSIGN(
            JoinRun batch,
            RunMatrixJoin(in, one_key, type, true, threads, hints));
        HashJoinNode join(std::make_unique<TableSourceNode>(in.left),
                          std::make_unique<TableSourceNode>(in.right), type,
                          one_key, MatrixResidual(true), threads, hints);
        ASSERT_OK(join.Open());
        std::vector<Row> rows;
        Row row;
        bool eof = false;
        while (true) {
          ASSERT_OK(join.Next(&row, &eof));
          if (eof) break;
          rows.push_back(std::move(row));
        }
        join.Close();
        EXPECT_GT(batch.peak_mem_bytes, 0) << ctx;
        EXPECT_EQ(join.stats().rows_out, batch.out.num_rows()) << ctx;
        ASSERT_TRUE(rows == batch.out.rows()) << ctx;
      }
    }
  }
}

TEST(NestedLoopJoinTest, MatchesHashJoinOnEquality) {
  JoinFixture f;
  auto l = std::make_unique<TableSourceNode>(f.left);
  auto r = std::make_unique<TableSourceNode>(f.right);
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kLeftOuter,
                         Eq(Col("l.k"), Col("r.k")));
  ASSERT_OK_AND_ASSIGN(Table nlj_out, CollectTable(&nlj));
  ASSERT_OK_AND_ASSIGN(Table hash_out, f.Run(JoinType::kLeftOuter));
  EXPECT_TRUE(Table::BagEquals(nlj_out, hash_out));
}

TEST(NestedLoopJoinTest, CrossProductWithNullCondition) {
  auto l = std::make_unique<TableSourceNode>(MakeTable({"a"}, {{I(1)}, {I(2)}}));
  auto r = std::make_unique<TableSourceNode>(MakeTable({"b"}, {{I(3)}}));
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kInner,
                         nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&nlj));
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(NestedLoopJoinTest, LeftOuterCrossPadsOnEmptyRight) {
  auto l = std::make_unique<TableSourceNode>(MakeTable({"a"}, {{I(1)}}));
  auto r = std::make_unique<TableSourceNode>(MakeTable({"b"}, {}));
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kLeftOuter,
                         nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&nlj));
  ASSERT_EQ(out.num_rows(), 1);
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

}  // namespace
}  // namespace nestra
