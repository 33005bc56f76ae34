#include <gtest/gtest.h>

#include <algorithm>

#include "exec/sort.h"
#include "nested/fused_nest_select.h"
#include "nested/linking_selection.h"
#include "nested/nest.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

// The Temp1 wide relation of the paper (see linking_selection_test.cc).
Table Temp1() {
  return MakeTable({"b", "c", "d", "e", "h", "i", "j", "l"},
                   {
                       {I(2), I(3), I(1), N(), N(), N(), N(), N()},
                       {I(3), I(4), I(2), I(1), I(2), I(1), N(), I(2)},
                       {I(3), I(4), I(2), I(2), I(7), I(2), I(5), I(1)},
                       {I(4), I(5), I(3), N(), N(), N(), N(), N()},
                       {N(), I(5), I(4), I(3), I(3), I(3), N(), N()},
                       {N(), I(5), I(4), I(4), N(), I(4), N(), N()},
                   });
}

Result<Table> RunFused(Table input, std::vector<FusedLevelSpec> levels) {
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      [&] {
        std::vector<SortKey> keys;
        for (const std::string& a : levels.back().nesting_attrs) {
          keys.push_back({a, true});
        }
        return keys;
      }());
  FusedNestSelectNode fused(std::move(sort), std::move(levels));
  return CollectTable(&fused);
}

TEST(FusedTest, TwoLevelsMatchMaterializedPipelineOnPaperData) {
  // Fused: single sort + one pass over both Query Q predicates.
  FusedLevelSpec outer;
  outer.nesting_attrs = {"b", "c", "d"};
  outer.pred =
      MakeLinkingPredicate(LinkOp::kNotIn, CmpOp::kEq, "b", "", "e", "i");
  outer.mode = SelectionMode::kStrict;
  FusedLevelSpec inner;
  inner.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  inner.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  inner.mode = SelectionMode::kPseudo;
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(Temp1(), {outer, inner}));

  ExpectTablesEqual(MakeTable({"b", "c", "d"},
                              {
                                  {I(2), I(3), I(1)},
                                  {I(3), I(4), I(2)},
                                  {I(4), I(5), I(3)},
                              }),
                    fused);
}

TEST(FusedTest, SingleLevelStrictMatchesLinkingSelect) {
  const Table input = Temp1();
  FusedLevelSpec level;
  level.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  level.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(input, {level}));

  ASSERT_OK_AND_ASSIGN(
      NestedRelation nested,
      Nest(input, {"b", "c", "d", "e", "h", "i"}, {"j", "l"}, "grp"));
  ASSERT_OK_AND_ASSIGN(
      Table materialized,
      LinkingSelect(nested,
                    MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "grp",
                                         "j", "l"),
                    SelectionMode::kStrict));
  ExpectTablesEqual(materialized, fused);
}

TEST(FusedTest, SingleLevelPseudoPadsOutput) {
  const Table input = Temp1();
  FusedLevelSpec level;
  level.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  level.mode = SelectionMode::kPseudo;
  level.pad_attrs = {"e", "h", "i"};
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(input, {level}));

  ASSERT_OK_AND_ASSIGN(
      NestedRelation nested,
      Nest(input, {"b", "c", "d", "e", "h", "i"}, {"j", "l"}, "grp"));
  ASSERT_OK_AND_ASSIGN(
      Table materialized,
      LinkingSelect(nested,
                    MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "grp",
                                         "j", "l"),
                    SelectionMode::kPseudo, {"e", "h", "i"}));
  ExpectTablesEqual(materialized, fused);
}

TEST(FusedTest, EmptyInputYieldsEmptyOutput) {
  Table input = MakeTable({"a", "b", "k"}, {});
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table out, RunFused(std::move(input), {level}));
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(FusedTest, ExistsAndNotExists) {
  // Outer 1 has a real member, outer 2 only padding.
  Table input = MakeTable({"a", "b", "k"}, {
                                               {I(1), I(9), I(1)},
                                               {I(2), N(), N()},
                                           });
  FusedLevelSpec exists;
  exists.nesting_attrs = {"a"};
  exists.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  exists.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table e, RunFused(input, {exists}));
  ExpectTablesEqual(MakeTable({"a"}, {{I(1)}}), e);

  FusedLevelSpec not_exists = exists;
  not_exists.pred =
      MakeLinkingPredicate(LinkOp::kNotExists, CmpOp::kEq, "", "", "b", "k");
  ASSERT_OK_AND_ASSIGN(Table ne, RunFused(input, {not_exists}));
  ExpectTablesEqual(MakeTable({"a"}, {{I(2)}}), ne);
}

TEST(FusedTest, GroupCountersTrackLevels) {
  Table input = MakeTable({"a", "b", "k"}, {
                                               {I(1), I(9), I(1)},
                                               {I(1), I(8), I(2)},
                                               {I(2), N(), N()},
                                           });
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      std::vector<SortKey>{{"a", true}});
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  std::vector<FusedLevelSpec> levels{level};
  FusedNestSelectNode fused(std::move(sort), std::move(levels));
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&fused));
  EXPECT_EQ(out.num_rows(), 1);
  ASSERT_EQ(fused.groups_closed().size(), 1u);
  EXPECT_EQ(fused.groups_closed()[0], 2);
}

// A flat input over (a, x | b, y | c, z), generated in key order: the outer
// level nests by (a, x), the inner by (a, x, b, y), and (c, z) are the
// inner members. Keys include NULLs (they sort first), and y/z carry NULLs
// so both 3VL predicates go UNKNOWN. The sort feeds the fused evaluator
// RowBatch::kDefaultCapacity rows per batch; group sizes are clipped so
// that, at the three batch boundaries, an inner group ends exactly at the
// first (its outer group continues), an inner group straddles the second,
// and an outer group ends exactly at the third.
Table BoundaryInput() {
  constexpr int64_t kBatch = RowBatch::kDefaultCapacity;
  Table t = MakeTable({"a", "x", "b", "y", "c", "z"}, {});
  uint64_t s = 17;
  const auto next = [&s](int64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((s >> 33) % static_cast<uint64_t>(mod));
  };
  for (int64_t o = 0; t.num_rows() < 3 * kBatch + 300; ++o) {
    const Value a = o == 0 ? N() : I(o);
    const Value x = I(o % 4 + 1);
    int64_t inner_groups = 1 + next(12);
    for (int64_t g = 0; g < inner_groups; ++g) {
      const Value b = g == 0 && o % 3 == 0 ? N() : I(g);
      const Value y = next(9) == 0 ? N() : I(next(6));
      const int64_t n = t.num_rows();
      int64_t size = 1 + next(15);
      bool end_outer = false;
      if (n < kBatch && n + size >= kBatch) {
        size = kBatch - n;
        inner_groups = std::max(inner_groups, g + 2);
      } else if (n + size == 2 * kBatch) {
        ++size;
      } else if (n < 3 * kBatch && n + size >= 3 * kBatch) {
        size = 3 * kBatch - n;
        end_outer = true;
      }
      for (int64_t k = 0; k < size; ++k) {
        const Value c = next(11) == 0 ? N() : I(n + k);
        const Value z = next(13) == 0 ? N() : I(next(8));
        t.AppendUnchecked(Row({a, x, b, y, c, z}));
      }
      if (end_outer) break;
    }
  }
  return t;
}

// The batch evaluator carries its open groups across input batches
// (KeyChangedBatch compares a batch's first row against prev_keys_). A
// two-level case over more than 2 x RowBatch::kDefaultCapacity rows, with
// an outer pseudo-selection pad, must match the materialized Nest +
// LinkingSelect pipeline group for group.
TEST(FusedTest, TwoLevelsAcrossBatchBoundariesMatchMaterializedPipeline) {
  const Table input = BoundaryInput();
  const auto same_key = [&input](int64_t r, int cols) {
    const Row& prev = input.rows()[static_cast<size_t>(r - 1)];
    const Row& cur = input.rows()[static_cast<size_t>(r)];
    for (int c = 0; c < cols; ++c) {
      if (Value::TotalOrderCompare(prev[c], cur[c]) != 0) return false;
    }
    return true;
  };
  constexpr int64_t kBatch = RowBatch::kDefaultCapacity;
  ASSERT_GT(input.num_rows(), 3 * kBatch);
  EXPECT_TRUE(same_key(kBatch, 2) && !same_key(kBatch, 4));
  EXPECT_TRUE(same_key(2 * kBatch, 4));
  EXPECT_FALSE(same_key(3 * kBatch, 2));

  FusedLevelSpec outer;
  outer.nesting_attrs = {"a", "x"};
  outer.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "x", "", "y", "b");
  outer.mode = SelectionMode::kPseudo;
  outer.pad_attrs = {"x"};
  FusedLevelSpec inner;
  inner.nesting_attrs = {"a", "x", "b", "y"};
  inner.pred =
      MakeLinkingPredicate(LinkOp::kNotIn, CmpOp::kEq, "y", "", "z", "c");
  inner.mode = SelectionMode::kPseudo;
  const std::vector<FusedLevelSpec> levels = {outer, inner};

  ASSERT_OK_AND_ASSIGN(
      NestedRelation inner_nested,
      Nest(input, {"a", "x", "b", "y"}, {"z", "c"}, "g"));
  ASSERT_OK_AND_ASSIGN(
      Table inner_selected,
      LinkingSelect(inner_nested,
                    MakeLinkingPredicate(LinkOp::kNotIn, CmpOp::kEq, "y", "g",
                                         "z", "c"),
                    SelectionMode::kPseudo, {"b", "y"}));
  ASSERT_OK_AND_ASSIGN(NestedRelation outer_nested,
                       Nest(inner_selected, {"a", "x"}, {"y", "b"}, "g"));
  ASSERT_OK_AND_ASSIGN(
      Table materialized,
      LinkingSelect(outer_nested,
                    MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "x", "g",
                                         "y", "b"),
                    SelectionMode::kPseudo, {"x"}));

  auto make_fused = [&] {
    return FusedNestSelectNode(
        std::make_unique<SortNode>(
            std::make_unique<TableSourceNode>(input),
            std::vector<SortKey>{{"a", true}, {"x", true}, {"b", true},
                                 {"y", true}}),
        levels);
  };
  FusedNestSelectNode fused = make_fused();
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&fused));
  ExpectTablesEqual(materialized, out);
  ASSERT_EQ(fused.groups_closed().size(), 2u);
  EXPECT_EQ(fused.groups_closed()[0], outer_nested.num_tuples());
  EXPECT_EQ(fused.groups_closed()[1], inner_nested.num_tuples());
  // Both verdicts and the pad occur, so the comparison is not vacuous.
  int64_t padded = 0;
  for (const Row& r : out.rows()) padded += r[1].is_null() ? 1 : 0;
  EXPECT_GT(padded, 0);
  EXPECT_LT(padded, out.num_rows());

  // Row pulls are served from the same batch evaluator.
  FusedNestSelectNode pulled = make_fused();
  ASSERT_OK(pulled.Open());
  std::vector<Row> rows;
  Row row;
  bool eof = false;
  while (true) {
    ASSERT_OK(pulled.Next(&row, &eof));
    if (eof) break;
    rows.push_back(std::move(row));
  }
  pulled.Close();
  EXPECT_TRUE(rows == out.rows());
}

TEST(FusedTest, RejectsNonPrefixLevels) {
  Table input = MakeTable({"a", "b", "c", "k"}, {{I(1), I(2), I(3), I(4)}});
  FusedLevelSpec outer;
  outer.nesting_attrs = {"a"};
  outer.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  FusedLevelSpec inner;
  inner.nesting_attrs = {"b", "c"};  // does not contain "a"
  inner.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      std::vector<SortKey>{{"b", true}, {"c", true}});
  FusedNestSelectNode fused(std::move(sort), {outer, inner});
  EXPECT_FALSE(fused.Open().ok());
}

// The evaluator needs each group contiguous, not sorted: the same rows in
// a grouped but unsorted order (as a left-outer join chain delivers them)
// yield the same groups, emitted in arrival order.
TEST(FusedTest, GroupedUnsortedInputMatchesSortedInput) {
  const Table grouped = MakeTable({"a", "b", "k"}, {
                                                       {I(3), I(1), I(7)},
                                                       {I(3), I(9), I(8)},
                                                       {I(2), I(1), I(5)},
                                                       {I(1), N(), N()},
                                                   });
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "a", "", "b", "k");
  level.mode = SelectionMode::kStrict;

  FusedNestSelectNode streamed(std::make_unique<TableSourceNode>(grouped),
                               {level});
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&streamed));
  ASSERT_OK_AND_ASSIGN(Table sorted, RunFused(grouped, {level}));
  // a=3: 3 > ALL {1, 9} fails; a=2: 2 > ALL {1} holds; a=1: ALL over the
  // empty set holds. Same groups, emitted in arrival order.
  ExpectTablesEqual(sorted, out);
  ASSERT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.rows()[0][0], I(2));
  EXPECT_EQ(sorted.rows()[0][0], I(1));
  EXPECT_EQ(streamed.groups_closed(), std::vector<int64_t>{3});
}

// A group whose rows are not contiguous would be split in two and each half
// linked on its own, a silent wrong answer; debug builds stop at the first
// group key that reopens.
TEST(FusedDeathTest, NonContiguousGroupTripsTheGroupingCheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "NESTRA_DCHECK is compiled out of this build";
#else
  const Table scattered = MakeTable({"a", "b", "k"}, {
                                                         {I(1), I(2), I(1)},
                                                         {I(2), I(3), I(2)},
                                                         {I(1), I(4), I(3)},
                                                     });
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  FusedNestSelectNode fused(std::make_unique<TableSourceNode>(scattered),
                            {level});
  EXPECT_DEATH((void)CollectTable(&fused), "NESTRA_CHECK failed");
#endif
}

}  // namespace
}  // namespace nestra
