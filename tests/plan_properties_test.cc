// Static plan-property analyzer: unit tests for the nullability / key /
// cardinality dataflow (DESIGN.md §10), soundness of the non-NULL proofs
// against actual execution over the fuzz corpus, and bit-identity of the
// proven-2VL fast path with the 3VL pipelines across engines and threads.

#include "verify/properties.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nra/executor.h"
#include "plan/binder.h"
#include "query_generator.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::MakeTable;
using testing_util::QueryGenerator;
using testing_util::RegisterPaperRelations;

class PropertiesTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  QueryBlockPtr Bind(const std::string& sql) {
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    EXPECT_TRUE(bound.ok()) << sql << "\n" << bound.status().ToString();
    return bound.ok() ? std::move(bound).ValueOrDie() : nullptr;
  }

  Catalog catalog_;
};

TEST_F(PropertiesTest, SeedsFromDeclaredAndObservedConstraints) {
  // r(a,b,c,d): d is the declared key; c is NULL-free in the data; a and b
  // each hold a NULL.
  const QueryBlockPtr root = Bind("select a from r");
  ASSERT_NE(root, nullptr);
  const PropertyAnalyzer analyzer(catalog_);
  const BlockProperties props = analyzer.Analyze(*root);
  EXPECT_FALSE(props.NonNull("r.a"));
  EXPECT_FALSE(props.NonNull("r.b"));
  EXPECT_TRUE(props.NonNull("r.c"));   // observed at load
  EXPECT_TRUE(props.NonNull("r.d"));   // declared (primary key)
  ASSERT_EQ(props.keys.size(), 1u);
  EXPECT_EQ(props.keys[0], std::vector<std::string>{"r.d"});
  EXPECT_EQ(props.card, CardBound::kMany);

  // The declared-only analyzer ignores the load-time scan.
  const PropertyAnalyzer declared(catalog_, /*declared_only=*/true);
  const BlockProperties strict = declared.Analyze(*root);
  EXPECT_FALSE(strict.NonNull("r.c"));
  EXPECT_TRUE(strict.NonNull("r.d"));
}

TEST_F(PropertiesTest, ComparisonConjunctsProveOperandsNonNull) {
  // An UNKNOWN comparison never qualifies a row, so among qualifying rows
  // both column operands of `a > 1` and `a < b` are non-NULL.
  const QueryBlockPtr root = Bind("select c from r where a > 1 and a < b");
  ASSERT_NE(root, nullptr);
  const BlockProperties props = PropertyAnalyzer(catalog_).Analyze(*root);
  EXPECT_TRUE(props.NonNull("r.a"));
  EXPECT_TRUE(props.NonNull("r.b"));
}

TEST_F(PropertiesTest, IsNullTransfersToExtremesAndContradictionsToZero) {
  {
    const QueryBlockPtr root = Bind("select c from r where a is null");
    ASSERT_NE(root, nullptr);
    const BlockProperties props = PropertyAnalyzer(catalog_).Analyze(*root);
    EXPECT_TRUE(props.AlwaysNull("r.a"));
    EXPECT_EQ(props.card, CardBound::kMany);
  }
  {
    // d is the declared key: `d IS NULL` contradicts NOT NULL, so the
    // qualifying set is provably empty.
    const QueryBlockPtr root = Bind("select c from r where d is null");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(PropertyAnalyzer(catalog_).Analyze(*root).card,
              CardBound::kZero);
  }
  {
    // A comparison against an always-NULL operand can only be UNKNOWN.
    const QueryBlockPtr root =
        Bind("select c from r where a is null and a > 1");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(PropertyAnalyzer(catalog_).Analyze(*root).card,
              CardBound::kZero);
  }
}

TEST_F(PropertiesTest, PinnedKeyBoundsCardinalityToOne) {
  const QueryBlockPtr root = Bind("select c from r where d = 2");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(PropertyAnalyzer(catalog_).Analyze(*root).card,
            CardBound::kAtMostOne);

  // Pinning a non-key column proves nothing about cardinality.
  const QueryBlockPtr loose = Bind("select c from r where b = 2");
  ASSERT_NE(loose, nullptr);
  EXPECT_EQ(PropertyAnalyzer(catalog_).Analyze(*loose).card,
            CardBound::kMany);
}

TEST_F(PropertiesTest, LinkFactsCoverTheLatticeCorners) {
  const PropertyAnalyzer analyzer(catalog_);
  const auto link_facts = [&](const std::string& sql) {
    const QueryBlockPtr root = Bind(sql);
    EXPECT_NE(root, nullptr);
    EXPECT_EQ(root->children.size(), 1u);
    return analyzer.AnalyzeLink(*root->children[0], {root.get()});
  };

  // Emptiness tests carry no member comparison.
  EXPECT_TRUE(
      link_facts("select a from r where exists (select e from s)").two_valued);
  // Both operands proven (declared key vs observed NULL-free column).
  EXPECT_TRUE(
      link_facts("select a from r where d in (select e from s)").two_valued);
  // Nullable linking side: three-valued but not constant.
  {
    const LinkFacts f =
        link_facts("select a from r where b in (select e from s)");
    EXPECT_FALSE(f.two_valued);
    EXPECT_FALSE(f.always_unknown);
  }
  // Provably-NULL linked side: the comparison is constant UNKNOWN.
  {
    const LinkFacts f = link_facts(
        "select a from r where d in (select h from s where h is null)");
    EXPECT_TRUE(f.always_unknown);
  }
  // Aggregates fold empty groups to NULL: conservatively three-valued.
  {
    const LinkFacts f =
        link_facts("select a from r where d > (select max(e) from s)");
    EXPECT_FALSE(f.two_valued);
  }
}

TEST_F(PropertiesTest, IncomparableTypesAreAlwaysUnknown) {
  // A string column compared against an int subquery: Value::Compare
  // returns no ordering across classes, so the member comparison is
  // constant UNKNOWN (and the qualifying set of a block with such a local
  // comparison is provably empty).
  Catalog catalog;
  Table names{Schema({Field("id", TypeId::kInt64, /*nullable=*/false),
                      Field("label", TypeId::kString, /*nullable=*/true)})};
  {
    Row row;
    row.Append(Value::Int64(1));
    row.Append(Value::String("one"));
    names.AppendUnchecked(std::move(row));
  }
  ASSERT_OK(catalog.RegisterTable("names", std::move(names), "id"));
  RegisterPaperRelations(&catalog);

  ASSERT_OK_AND_ASSIGN(
      const QueryBlockPtr root,
      ParseAndBind("select n.id from names n where n.label in "
                   "(select s.e from s)",
                   catalog));
  ASSERT_EQ(root->children.size(), 1u);
  const PropertyAnalyzer analyzer(catalog);
  const LinkFacts facts = analyzer.AnalyzeLink(*root->children[0], {root.get()});
  EXPECT_TRUE(facts.always_unknown) << facts.reason;
}

TEST_F(PropertiesTest, NegativeLinkEligibilityRequiresStrictSafePath) {
  // Identical leaf link; what differs is the enclosing operator. Under a
  // positive parent the leaf may drop rows (strict), under a negative one a
  // dropped row would flip the outer NOT IN — ineligible.
  const QueryBlockPtr safe = Bind(
      "select r.a from r where r.d in (select s.e from s where s.g = r.d and "
      "s.i not in (select t.l from t where t.k = s.i))");
  ASSERT_NE(safe, nullptr);
  const QueryBlock& safe_leaf = *safe->children[0]->children[0];
  EXPECT_TRUE(NegativeLinkRunsTwoValued(
      safe_leaf, {safe.get(), safe->children[0].get()}, catalog_));

  const QueryBlockPtr unsafe = Bind(
      "select r.a from r where r.d not in (select s.e from s where s.g = r.d "
      "and s.i not in (select t.l from t where t.k = s.i))");
  ASSERT_NE(unsafe, nullptr);
  const QueryBlock& unsafe_leaf = *unsafe->children[0]->children[0];
  EXPECT_FALSE(NegativeLinkRunsTwoValued(
      unsafe_leaf, {unsafe.get(), unsafe->children[0].get()}, catalog_));

  // NOT EXISTS needs no member-comparison proof at all: nullable columns
  // everywhere, still eligible.
  const QueryBlockPtr ne = Bind(
      "select r.a from r where not exists "
      "(select s.h from s where s.g = r.b)");
  ASSERT_NE(ne, nullptr);
  EXPECT_TRUE(
      NegativeLinkRunsTwoValued(*ne->children[0], {ne.get()}, catalog_));
}

// Soundness of the static facts against real execution: over the fuzz corpus
// (biased toward key-column links), any output column the analyzer proves
// non-NULL for the root block must contain no NULL at runtime, serial and
// parallel.
class PropertiesFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertiesFuzzTest, ProvenNonNullColumnsNeverYieldNull) {
  QueryGenerator gen(GetParam(), /*key_links=*/true);
  Catalog catalog;
  gen.PopulateTables(&catalog);
  const PropertyAnalyzer analyzer(catalog);

  for (int i = 0; i < 20; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(const QueryBlockPtr root,
                         ParseAndBind(sql, catalog));
    const BlockProperties props = analyzer.Analyze(*root);

    for (const int threads : {1, 2, 8}) {
      NraOptions opts = NraOptions::Optimized();
      opts.num_threads = threads;
      NraExecutor exec(catalog, opts);
      ASSERT_OK_AND_ASSIGN(const Table result, exec.Execute(*root));
      for (int c = 0; c < result.schema().num_fields(); ++c) {
        const std::string& name = result.schema().fields()[c].name;
        if (!props.NonNull(name)) continue;
        for (const Row& row : result.rows()) {
          ASSERT_FALSE(row[c].is_null())
              << name << " proven non-null but NULL at runtime "
              << "(threads=" << threads << ")\n"
              << result.ToString();
        }
      }
    }
  }
}

// The tentpole contract: with the proofs in place, the proven-2VL fast path
// (antijoin links + null-check-free kernels) returns exactly what the 3VL
// pipelines return, per thread count.
TEST_P(PropertiesFuzzTest, TwoValuedFastPathMatchesThreeValued) {
  QueryGenerator gen(GetParam(), /*key_links=*/true);
  Catalog catalog;
  gen.PopulateTables(&catalog);

  for (int i = 0; i < 20; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    for (const int threads : {1, 2, 8}) {
      NraOptions slow = NraOptions::Optimized();
      slow.num_threads = threads;
      slow.two_valued = false;
      NraOptions fast = slow;
      fast.two_valued = true;

      NraExecutor slow_exec(catalog, slow);
      NraExecutor fast_exec(catalog, fast);
      ASSERT_OK_AND_ASSIGN(const Table expected, slow_exec.ExecuteSql(sql));
      ASSERT_OK_AND_ASSIGN(const Table actual, fast_exec.ExecuteSql(sql));
      ExpectTablesEqual(expected, actual);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertiesFuzzTest,
                         ::testing::Values(11, 23, 37, 59, 71));

}  // namespace
}  // namespace nestra
