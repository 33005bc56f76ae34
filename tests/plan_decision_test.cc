// Satellite regression for the consolidated plan-decision predicates: the
// negative-link "proven two-valued antijoin" choice lives in ONE place
// (TakesTwoValuedAntijoin / FusedChainBypassesTwoValued in nra/rewrites.h)
// and EXPLAIN, the static verifier's plan outline, and the plan the
// executor actually runs must never disagree about it. Before the
// consolidation each layer re-derived the decision by hand; this test
// fails if any future change lets them drift apart again.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/nested_iteration.h"
#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "verify/verifier.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;
using testing_util::kQueryQ;

// The exact phrase ExplainNode prints for the decision — nothing else in
// EXPLAIN output contains it.
constexpr const char* kAntijoinPhrase =
    "two-valued antijoin (proven non-NULL member comparison)";

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

bool HasStage(const QueryProfile& profile, const std::string& label) {
  for (const ProfiledStage& s : profile.stages()) {
    if (s.label == label) return true;
  }
  return false;
}

// True when block `id` ran through ANY nest/selection machinery — i.e. it
// did NOT take a join-only fast path (semijoin or antijoin).
bool RanNestSelect(const QueryProfile& profile, int id) {
  const std::string bid = std::to_string(id);
  return HasStage(profile, "nest[b" + bid + "]") ||
         HasStage(profile, "select[b" + bid + "]") ||
         HasStage(profile, "link-select[b" + bid + "]") ||
         HasStage(profile, "fused[b" + bid + "]") ||
         // The whole-chain single-sort pipeline evaluates every level in
         // one unlabeled-by-block stage.
         HasStage(profile, "fused nest+select");
}

std::vector<std::pair<std::string, NraOptions>> DecisionOptionSets() {
  std::vector<std::pair<std::string, NraOptions>> sets;
  sets.emplace_back("optimized", NraOptions::Optimized());
  sets.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.two_valued = false;
    sets.emplace_back("three-valued", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.rewrite_positive = true;
    sets.emplace_back("semijoin-rewrite", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    sets.emplace_back("push-down", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.bottom_up_linear = true;
    sets.emplace_back("bottom-up", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    sets.emplace_back("magic", o);
  }
  return sets;
}

class PlanDecisionTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  // The three layers for one (query, options) pair:
  //  1. EXPLAIN's antijoin-phrase count equals the outline's kAntijoin
  //     step count.
  //  2. Executing the query yields a profile where every kAntijoin step
  //     ran join-only and every nest-bearing step actually nested.
  void CheckLayersAgree(const std::string& sql, const std::string& set_name,
                        const NraOptions& options) {
    const std::string context = set_name + "\n" + sql;
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    ASSERT_TRUE(bound.ok()) << context << "\n" << bound.status().ToString();
    const QueryBlockPtr root = std::move(bound).ValueOrDie();

    const std::string explain = ExplainQuery(*root, catalog_, options);
    const PlanVerifier verifier(catalog_, options);
    const std::vector<PlanStep> steps = verifier.Outline(*root);

    int outlined_antijoins = 0;
    for (const PlanStep& s : steps) {
      if (s.kind == PlanStepKind::kAntijoin) ++outlined_antijoins;
    }
    EXPECT_EQ(CountOccurrences(explain, kAntijoinPhrase), outlined_antijoins)
        << context << "\nEXPLAIN and Outline() disagree:\n"
        << explain;

    NraOptions exec_opts = options;
    exec_opts.profile = true;
    NraExecutor exec(catalog_, exec_opts);
    QueryProfile profile;
    Result<Table> result = exec.ExecuteSql(sql, nullptr, &profile);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();

    for (const PlanStep& s : steps) {
      const int id = s.child->id;
      const std::string join_label = "join[b" + std::to_string(id) + "]";
      if (s.kind == PlanStepKind::kAntijoin ||
          s.kind == PlanStepKind::kSemijoin) {
        EXPECT_TRUE(HasStage(profile, join_label))
            << context << ": outline promised a join-only fast path for "
            << "block " << id << " but no " << join_label << " stage ran";
        EXPECT_FALSE(RanNestSelect(profile, id))
            << context << ": outline promised a join-only fast path for "
            << "block " << id
            << " but the executed plan ran nest/selection stages";
      } else {
        EXPECT_TRUE(RanNestSelect(profile, id))
            << context << ": outline step for block " << id
            << " requires a nest/selection, but none ran";
      }
    }
  }

  Catalog catalog_;
};

// r.d is r's primary key and s.e is NULL-free at load: the member
// comparison is proven two-valued, so the default plan antijoins.
constexpr const char* kProvenNotIn =
    "select r.a from r where r.d not in "
    "(select s.e from s where s.g = r.d)";

// r.b is nullable: the proof fails, the decision must be NO everywhere.
constexpr const char* kUnprovenNotIn =
    "select r.a from r where r.b not in "
    "(select s.e from s where s.g = r.d)";

// Positive link: antijoin can never apply (semijoin territory).
constexpr const char* kPositiveIn =
    "select r.a from r where r.d in "
    "(select s.e from s where s.g = r.d)";

// NOT EXISTS has no member comparison to prove anything about.
constexpr const char* kNotExists =
    "select r.a from r where not exists "
    "(select s.e from s where s.g = r.d)";

TEST_F(PlanDecisionTest, AllLayersAgreeOnEveryCorpusQuery) {
  const std::vector<const char*> corpus = {kProvenNotIn, kUnprovenNotIn,
                                           kPositiveIn, kNotExists, kQueryQ};
  for (const auto& [set_name, options] : DecisionOptionSets()) {
    for (const char* sql : corpus) {
      CheckLayersAgree(sql, set_name, options);
    }
  }
}

TEST_F(PlanDecisionTest, ProvenNotInTakesAntijoinByDefault) {
  Result<QueryBlockPtr> bound = ParseAndBind(kProvenNotIn, catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const QueryBlockPtr root = std::move(bound).ValueOrDie();

  const NraOptions options = NraOptions::Optimized();
  EXPECT_EQ(CountOccurrences(ExplainQuery(*root, catalog_, options),
                             kAntijoinPhrase),
            1);
  const std::vector<PlanStep> steps =
      PlanVerifier(catalog_, options).Outline(*root);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].kind, PlanStepKind::kAntijoin);
}

TEST_F(PlanDecisionTest, DisablingTwoValuedDisablesAllThreeLayers) {
  Result<QueryBlockPtr> bound = ParseAndBind(kProvenNotIn, catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const QueryBlockPtr root = std::move(bound).ValueOrDie();

  NraOptions options = NraOptions::Optimized();
  options.two_valued = false;
  EXPECT_EQ(CountOccurrences(ExplainQuery(*root, catalog_, options),
                             kAntijoinPhrase),
            0);
  for (const PlanStep& s : PlanVerifier(catalog_, options).Outline(*root)) {
    EXPECT_NE(s.kind, PlanStepKind::kAntijoin);
  }

  options.profile = true;
  NraExecutor exec(catalog_, options);
  QueryProfile profile;
  ASSERT_OK(exec.ExecuteSql(kProvenNotIn, nullptr, &profile).status());
  EXPECT_TRUE(RanNestSelect(profile, root->children[0]->id));
}

// ---------- The fused pipeline's sort (FusedChainGroupedByJoin) ----------

// True when a Sort runs anywhere in `op`'s subtree.
bool HasSort(const ProfiledOperator& op) {
  if (op.name == "Sort") return true;
  for (const ProfiledOperator& child : op.children) {
    if (HasSort(child)) return true;
  }
  return false;
}

struct SortPin {
  const char* name;
  const char* sql;
  NraOptions options;
  bool fused_chain;  // runs as the whole-chain fused pipeline
  bool sorted;       // that pipeline keeps its sort
};

class FusedSortDecisionTest : public PlanDecisionTest {
 protected:
  void SetUp() override {
    PlanDecisionTest::SetUp();
    // A table with no declared primary key: legal as a block's second
    // table (the binder keys a block by its first).
    ASSERT_OK(catalog_.RegisterTable(
        "u",
        testing_util::MakeTable({"ua", "ub"}, {{testing_util::I(1),
                                                testing_util::I(2)},
                                               {testing_util::I(2),
                                                testing_util::I(3)},
                                               {testing_util::I(3),
                                                testing_util::N()}}),
        ""));
  }

  // EXPLAIN, the verifier outline and the executed profile must agree on
  // the pin, and the result must match the nested-iteration oracle.
  void CheckPin(const SortPin& pin) {
    SCOPED_TRACE(std::string(pin.name) + "\n" + pin.sql);
    ASSERT_OK_AND_ASSIGN(QueryBlockPtr root, ParseAndBind(pin.sql, catalog_));

    const std::string explain = ExplainQuery(*root, catalog_, pin.options);
    EXPECT_EQ(explain.find("sort-free fused pipeline") != std::string::npos,
              pin.fused_chain && !pin.sorted)
        << explain;
    EXPECT_EQ(explain.find("single-sort fused pipeline") != std::string::npos,
              pin.fused_chain && pin.sorted)
        << explain;

    bool streaming = false;
    for (const PlanStep& s :
         PlanVerifier(catalog_, pin.options).Outline(*root)) {
      if (!s.streaming) {
        EXPECT_FALSE(s.grouped_by_join);
        continue;
      }
      streaming = true;
      EXPECT_EQ(s.grouped_by_join, !pin.sorted);
    }
    EXPECT_EQ(streaming, pin.fused_chain);

    NraOptions opts = pin.options;
    opts.profile = true;
    NraExecutor exec(catalog_, opts);
    QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(Table actual,
                         exec.ExecuteSql(pin.sql, nullptr, &profile));
    bool chain_stage = false;
    for (const ProfiledStage& stage : profile.stages()) {
      if (stage.label == "fused nest+select") {
        chain_stage = true;
        EXPECT_EQ(HasSort(stage.tree), pin.sorted) << profile.ToString();
      } else if (stage.label.rfind("fused[b", 0) == 0) {
        // A per-level fused nest on the recursive route always sorts.
        EXPECT_TRUE(HasSort(stage.tree)) << profile.ToString();
      }
    }
    EXPECT_EQ(chain_stage, pin.fused_chain) << profile.ToString();

    NestedIterationExecutor oracle(catalog_, {.use_indexes = false});
    ASSERT_OK_AND_ASSIGN(Table expected, oracle.ExecuteSql(pin.sql));
    testing_util::ExpectTablesEqual(expected, actual);
  }
};

TEST_F(FusedSortDecisionTest, SortDroppedExactlyWhereTheChainGroupsTheLevels) {
  const NraOptions optimized = NraOptions::Optimized();
  NraOptions original = NraOptions::Original();
  NraOptions push_down = optimized;
  push_down.push_down_nest = true;
  NraOptions semijoin = optimized;
  semijoin.rewrite_positive = true;
  NraOptions bottom_up = optimized;
  bottom_up.bottom_up_linear = true;
  NraOptions three_valued = optimized;
  three_valued.two_valued = false;

  // r.b and t.j are nullable, so these links stay three-valued and fused.
  constexpr const char* kTree =
      "select r.a from r where r.b not in (select s.e from s where "
      "s.g = r.d) and r.c > all (select t.j from t where t.k = r.c)";
  constexpr const char* kLinearCorrelated =
      "select r.a from r where r.b in (select s.e from s where s.g = r.d "
      "and s.h > all (select t.j from t where t.l = s.i))";
  constexpr const char* kUncorrelatedMiddle =
      "select r.a from r where r.b not in (select s.e from s where "
      "s.h > all (select t.j from t where t.k = s.g))";
  constexpr const char* kUnkeyedOuterTable =
      "select r.a from r, u where r.a = u.ua and r.b not in "
      "(select s.e from s where s.g = r.d)";
  constexpr const char* kUnkeyedLeafTable =
      "select r.a from r where r.b not in "
      "(select s.e from s, u where s.g = r.d and u.ua = s.i)";
  // A pure theta correlation joins by nested loops, also left-major.
  constexpr const char* kThetaChain =
      "select r.a from r where r.b not in (select s.e from s where "
      "s.g < r.d)";

  const std::vector<SortPin> pins = {
      {"keyed chain", kQueryQ, optimized, true, false},
      {"keyed chain, 3VL", kProvenNotIn, three_valued, true, false},
      {"nested-loop chain", kThetaChain, optimized, true, false},
      {"unkeyed leaf table", kUnkeyedLeafTable, optimized, true, false},
      {"unkeyed outer table", kUnkeyedOuterTable, optimized, true, true},
      {"Original()", kQueryQ, original, false, false},
      {"push_down_nest", kQueryQ, push_down, false, false},
      {"rewrite_positive", kLinearCorrelated, semijoin, false, false},
      {"bottom_up_linear", kLinearCorrelated, bottom_up, false, false},
      {"tree query", kTree, optimized, false, false},
      {"uncorrelated block", kUncorrelatedMiddle, optimized, false, false},
  };
  for (const SortPin& pin : pins) CheckPin(pin);
}

// The decision reads plan shape and declared keys only: every thread count
// plans, explains and orders the result the same way.
TEST_F(FusedSortDecisionTest, DecisionAndRowOrderIgnoreTheThreadCount) {
  std::string plan_at_one;
  Table rows_at_one;
  for (const int threads : {1, 2, 8}) {
    NraOptions opts = NraOptions::Optimized();
    opts.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(QueryBlockPtr root, ParseAndBind(kQueryQ, catalog_));
    std::string plan = ExplainQuery(*root, catalog_, opts);
    plan = plan.substr(plan.find("fused pipeline"));
    NraExecutor exec(catalog_, opts);
    ASSERT_OK_AND_ASSIGN(Table rows, exec.ExecuteSql(kQueryQ));
    if (threads == 1) {
      plan_at_one = plan;
      rows_at_one = rows;
      continue;
    }
    EXPECT_EQ(plan, plan_at_one) << "threads=" << threads;
    EXPECT_TRUE(rows.rows() == rows_at_one.rows()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace nestra
