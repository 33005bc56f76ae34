#include <gtest/gtest.h>

#include <string>

#include "nra/executor.h"
#include "nra/explain.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  std::string Explain(const std::string& sql,
                      NraOptions options = NraOptions::Optimized()) {
    Result<std::string> r = ExplainSql(sql, catalog_, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::string();
  }

  Catalog catalog_;
};

TEST_F(ExplainTest, FlatQuery) {
  const std::string plan = Explain("select b from r where a > 1");
  EXPECT_NE(plan.find("flat query"), std::string::npos) << plan;
}

TEST_F(ExplainTest, QueryQUsesFusedChain) {
  const std::string plan = Explain(testing_util::kQueryQ);
  // r, s and t are all keyed: the join chain groups the levels, so the
  // fused pipeline runs with no sort and names the predicate that said so.
  EXPECT_NE(plan.find("sort-free fused pipeline"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("no sort (FusedChainGroupedByJoin"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("r.b <> ALL {s.e} (strict)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("s.h > ALL {t.j} (pseudo)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("nested iteration"), std::string::npos) << plan;
}

TEST_F(ExplainTest, OriginalModeUsesRecursivePath) {
  const std::string plan =
      Explain(testing_util::kQueryQ, NraOptions::Original());
  EXPECT_NE(plan.find("recursive Algorithm 1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("nest then select"), std::string::npos) << plan;
}

TEST_F(ExplainTest, VirtualCartesianProduct) {
  const std::string plan =
      Explain("select d from r where b > some (select e from s)");
  EXPECT_NE(plan.find("virtual Cartesian product"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, PositiveRewriteReported) {
  NraOptions opts = NraOptions::Optimized();
  opts.rewrite_positive = true;
  const std::string plan = Explain(
      "select b from r where exists (select * from s where s.g = r.d)",
      opts);
  EXPECT_NE(plan.find("semijoin rewrite (4.2.5)"), std::string::npos) << plan;
}

TEST_F(ExplainTest, PushDownReported) {
  NraOptions opts = NraOptions::Optimized();
  opts.push_down_nest = true;
  const std::string plan = Explain(
      "select b from r where b not in (select e from s where s.g = r.d)",
      opts);
  EXPECT_NE(plan.find("nest pushed below join (4.2.4)"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, BottomUpReported) {
  NraOptions opts = NraOptions::Optimized();
  opts.bottom_up_linear = true;
  const std::string plan = Explain(
      "select b from r where b not in (select e from s where s.g = r.d)",
      opts);
  EXPECT_NE(plan.find("bottom-up linear-correlated pipeline"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, InferredPropertiesReported) {
  const std::string plan = Explain(testing_util::kQueryQ);
  EXPECT_NE(plan.find("=== Inferred properties ==="), std::string::npos)
      << plan;
  // r.c and r.d are NULL-free at load (d is the key); r.a and r.b are not.
  EXPECT_NE(plan.find("block 1 properties: non-null={r.a, r.c, r.d}"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("keys={r.d}"), std::string::npos) << plan;
  // Query Q's middle link compares the nullable r.b: three-valued.
  EXPECT_NE(plan.find("link r.b <> ALL {s.e}: three-valued "
                      "(linking attribute 'r.b' may be NULL)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("=== Plan verification ===\nverify: 10 rules, "
                      "0 errors, 0 warnings"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, TwoValuedAntijoinReported) {
  const std::string sql =
      "select r.a from r where r.d not in (select s.e from s where s.g = r.d)";
  const std::string plan = Explain(sql);
  EXPECT_NE(plan.find("two-valued antijoin "
                      "(proven non-NULL member comparison)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("link r.d <> ALL {s.e}: two-valued "
                      "(both operands proven non-NULL)"),
            std::string::npos)
      << plan;
  // Disabling the fast path restores the fused 3VL pipeline.
  NraOptions three_valued = NraOptions::Optimized();
  three_valued.two_valued = false;
  const std::string slow = Explain(sql, three_valued);
  EXPECT_EQ(slow.find("two-valued antijoin"), std::string::npos) << slow;
  EXPECT_NE(slow.find("sort-free fused pipeline"), std::string::npos)
      << slow;
}

TEST_F(ExplainTest, NativePlanReported) {
  const std::string plan = Explain(
      "select b from r where exists (select * from s where s.g = r.d)");
  EXPECT_NE(plan.find("semijoin/antijoin pipeline"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, FinishDecorations) {
  const std::string plan =
      Explain("select distinct b from r order by b limit 2");
  EXPECT_NE(plan.find("order-by"), std::string::npos) << plan;
  EXPECT_NE(plan.find("distinct"), std::string::npos) << plan;
  EXPECT_NE(plan.find("limit 2"), std::string::npos) << plan;
}

TEST_F(ExplainTest, InvalidSqlPropagates) {
  EXPECT_FALSE(ExplainSql("select nope from r", catalog_).ok());
}

// Golden test on the deterministic parts of EXPLAIN ANALYZE: stage labels,
// phase attribution and row counts are identical on every machine and
// thread count; timings are not asserted.
TEST_F(ExplainTest, ExplainAnalyzeQueryQ) {
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainAnalyzeSql(testing_util::kQueryQ, catalog_,
                        NraOptions::Optimized()));
  // Static plan first, then the profile.
  EXPECT_NE(text.find("sort-free fused pipeline"), std::string::npos)
      << text;
  EXPECT_NE(text.find("=== Execution profile ==="), std::string::npos)
      << text;
  // Block bases with their exact (filtered) cardinalities: r.a > 1 keeps 2
  // of 4 rows, s.f = 5 keeps all 4, t has no local predicate.
  EXPECT_NE(text.find("stage base[r]  phase=unnest-join rows_out=2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stage base[s]  phase=unnest-join rows_out=4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stage base[t]  phase=unnest-join rows_out=2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stage join[b2]"), std::string::npos) << text;
  EXPECT_NE(text.find("stage join[b3]"), std::string::npos) << text;
  EXPECT_NE(text.find("stage fused nest+select  phase=linking-selection"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("FusedNestSelect(levels=2 groups=[2,3])"),
            std::string::npos)
      << text;
  // No sort runs: the fused pass reads the join result directly, and the
  // groups it closed (2 + 3) are the nest phase's rows.
  EXPECT_EQ(text.find("Sort"), std::string::npos) << text;
  EXPECT_NE(text.find("nest_groups=[2,3]"), std::string::npos) << text;
  EXPECT_NE(text.find("nest=0.000000s/5 rows"), std::string::npos) << text;
  EXPECT_NE(text.find("stage finish  phase=post-processing"),
            std::string::npos)
      << text;
  // The profiled output cardinality matches a plain execution.
  NraExecutor exec(catalog_, NraOptions::Optimized());
  ASSERT_OK_AND_ASSIGN(Table expected, exec.ExecuteSql(testing_util::kQueryQ));
  EXPECT_NE(text.find("Query profile: " +
                      std::to_string(expected.num_rows()) + " rows"),
            std::string::npos)
      << text;
}

TEST_F(ExplainTest, ExplainAnalyzeCompoundStatement) {
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainAnalyzeSql("select b from r union all select c from r",
                        catalog_));
  // Each branch's stages carry a branch prefix.
  EXPECT_NE(text.find("stage branch0: base[r]"), std::string::npos) << text;
  EXPECT_NE(text.find("stage branch1: base[r]"), std::string::npos) << text;
  EXPECT_NE(text.find("Query profile: 8 rows"), std::string::npos) << text;
}

}  // namespace
}  // namespace nestra
