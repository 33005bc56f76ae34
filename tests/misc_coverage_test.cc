// Coverage for the small rendering / metadata surfaces: enum names,
// ToString implementations, stats formatting, nested-relation printing.

#include <gtest/gtest.h>

#include "common/pretty_print.h"
#include "nested/nest.h"
#include "nested/linking_predicate.h"
#include "nra/options.h"
#include "plan/binder.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::RegisterPaperRelations;

TEST(NamesTest, LinkOps) {
  EXPECT_STREQ(LinkOpToString(LinkOp::kExists), "EXISTS");
  EXPECT_STREQ(LinkOpToString(LinkOp::kNotExists), "NOT EXISTS");
  EXPECT_STREQ(LinkOpToString(LinkOp::kIn), "IN");
  EXPECT_STREQ(LinkOpToString(LinkOp::kNotIn), "NOT IN");
  EXPECT_STREQ(LinkOpToString(LinkOp::kSome), "SOME");
  EXPECT_STREQ(LinkOpToString(LinkOp::kAll), "ALL");
}

TEST(NamesTest, PositiveNegativeTaxonomy) {
  EXPECT_TRUE(IsPositiveLinkOp(LinkOp::kExists));
  EXPECT_TRUE(IsPositiveLinkOp(LinkOp::kIn));
  EXPECT_TRUE(IsPositiveLinkOp(LinkOp::kSome));
  EXPECT_FALSE(IsPositiveLinkOp(LinkOp::kNotExists));
  EXPECT_FALSE(IsPositiveLinkOp(LinkOp::kNotIn));
  EXPECT_FALSE(IsPositiveLinkOp(LinkOp::kAll));
}

TEST(NamesTest, LinkAggAndTypeNames) {
  EXPECT_STREQ(LinkAggToString(LinkAgg::kCountStar), "count(*)");
  EXPECT_STREQ(LinkAggToString(LinkAgg::kAvg), "avg");
  EXPECT_STREQ(TypeIdToString(TypeId::kDate), "date");
  EXPECT_STREQ(TypeIdToString(TypeId::kString), "string");
}

TEST(LinkingPredicateTest, ToStringForms) {
  EXPECT_EQ(MakeLinkingPredicate(LinkOp::kNotExists, CmpOp::kEq, "", "g",
                                 "b", "k")
                .ToString(),
            "{g} = empty");
  EXPECT_EQ(MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "g", "b",
                                 "k")
                .ToString(),
            "{g} != empty");
  EXPECT_EQ(MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "a", "g", "b", "k")
                .ToString(),
            "a > ALL {b}");
  EXPECT_EQ(MakeAggregateLinkingPredicate(LinkAgg::kMax, CmpOp::kLe, "a",
                                          "g", "b", "k")
                .ToString(),
            "a <= max{b}");
}

TEST(LinkingPredicateTest, NegativityTaxonomy) {
  EXPECT_TRUE(MakeLinkingPredicate(LinkOp::kNotIn, CmpOp::kEq, "a", "g", "b",
                                   "k")
                  .IsNegative());
  EXPECT_FALSE(MakeLinkingPredicate(LinkOp::kIn, CmpOp::kEq, "a", "g", "b",
                                    "k")
                   .IsNegative());
  EXPECT_TRUE(MakeAggregateLinkingPredicate(LinkAgg::kCount, CmpOp::kEq, "a",
                                            "g", "b", "k")
                  .IsNegative());
}

TEST(OptionsTest, ToStringMentionsEveryFlag) {
  NraOptions o = NraOptions::Optimized();
  o.push_down_nest = true;
  o.magic_restriction = true;
  const std::string s = o.ToString();
  EXPECT_NE(s.find("fused=true"), std::string::npos);
  EXPECT_NE(s.find("push_down_nest=true"), std::string::npos);
  EXPECT_NE(s.find("magic_restriction=true"), std::string::npos);
  EXPECT_NE(s.find("rewrite_positive=false"), std::string::npos);
  EXPECT_NE(s.find("two_valued=true"), std::string::npos);
  // The stage DAG is the only scheduler; there is no flag to print.
  EXPECT_EQ(s.find("pipelined"), std::string::npos);

  NraStats stats;
  stats.intermediate_rows = 42;
  EXPECT_NE(stats.ToString().find("intermediate=42"), std::string::npos);
}

TEST(PrettyPrintTest, DatesRenderAsCalendarDates) {
  Table t{Schema({{"day", TypeId::kDate, true}})};
  t.AppendUnchecked(Row({Value::Date(0)}));
  t.AppendUnchecked(Row({N()}));
  const std::string s = PrettyPrintTable(t);
  EXPECT_NE(s.find("1970-01-01"), std::string::npos);
  EXPECT_NE(s.find("null"), std::string::npos);
}

TEST(NestedRelationPrintTest, RendersGroupsInBraces) {
  const Table flat = MakeTable({"g", "x"}, {{I(1), I(10)}, {I(1), I(20)}});
  ASSERT_OK_AND_ASSIGN(NestedRelation rel, Nest(flat, {"g"}, {"x"}, "grp"));
  const std::string s = rel.ToString();
  EXPECT_NE(s.find("{(10), (20)}"), std::string::npos) << s;
  EXPECT_NE(s.find("grp"), std::string::npos);
}

TEST(QueryBlockPrintTest, RendersStructure) {
  Catalog catalog;
  RegisterPaperRelations(&catalog);
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr root,
                       ParseAndBind(testing_util::kQueryQ, catalog));
  const std::string s = root->ToString();
  EXPECT_NE(s.find("Block 1: FROM r"), std::string::npos);
  EXPECT_NE(s.find("link: r.b"), std::string::npos);
  EXPECT_NE(s.find("NOT IN"), std::string::npos);
  EXPECT_NE(s.find("key: s.i"), std::string::npos);
}

TEST(SchemaPrintTest, NotNullShown) {
  const Schema s({{"a", TypeId::kInt64, false}, {"b", TypeId::kString, true}});
  const std::string text = s.ToString();
  EXPECT_NE(text.find("a: int64 NOT NULL"), std::string::npos);
  EXPECT_NE(text.find("b: string"), std::string::npos);
}

}  // namespace
}  // namespace nestra
