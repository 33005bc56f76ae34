#ifndef NESTRA_NESTED_FUSED_NEST_SELECT_H_
#define NESTRA_NESTED_FUSED_NEST_SELECT_H_

#include <set>
#include <string>
#include <vector>

#include "exec/exec_node.h"
#include "nested/linking_predicate.h"
#include "nested/linking_selection.h"

namespace nestra {

/// \brief One nesting level of the fused evaluator. Levels are listed
/// outermost first; each level's `nesting_attrs` must be a superset of the
/// previous level's (the paper's observation that "higher levels nest by a
/// prefix of the nesting attributes used by lower levels", §4.2.1), and the
/// input stream must be grouped (contiguous) by every level's nesting
/// attributes — sorted by the innermost level's, or delivered grouped by
/// the outer-join chain (FusedChainGroupedByJoin, nra/cost.h).
///
/// The linking predicate's attribute names all refer to columns of the flat
/// input schema: `linking_attr` must be functionally determined by this
/// level's nesting attributes, and `linked_attr`/`member_key_attr` by the
/// next level's (they are read from the representative row of the inner
/// group when it closes).
struct FusedLevelSpec {
  std::vector<std::string> nesting_attrs;
  LinkingPredicate pred;
  SelectionMode mode = SelectionMode::kPseudo;
  /// Outermost level only: in kPseudo mode a failing group is still emitted,
  /// with these columns (names within `nesting_attrs`) nulled — the
  /// streaming form of the pseudo-selection, used when the fused evaluator
  /// runs as one stage of a larger (tree-query) pipeline. Inner levels need
  /// no pad list: a failing inner group simply contributes no member.
  std::vector<std::string> pad_attrs;
};

/// \brief The optimized nested relational evaluator: one streaming pass
/// that pipelines every nest with its linking selection (§4.2.1 + §4.2.2)
/// over an input grouped (contiguous) by every level's nesting attributes.
/// The paper forms those groups with a single sort; a left-outer join chain
/// that already delivers them contiguously needs none.
///
/// Group boundaries are detected by key-prefix change, so a group whose
/// rows are not contiguous would be split in two: debug builds check that
/// no closed group key reappears at any level. When an inner group
/// closes, its predicate result decides whether the group contributes a
/// member to the enclosing level:
///  * result TRUE  -> contributes (member key, linked value) read from the
///                    group's representative row;
///  * otherwise    -> contributes nothing. (For a pseudo-selection this is
///    the NULL-padded member whose NULL key excludes it from the
///    quantification; for a strict selection the tuple is dropped — in the
///    streaming form both reduce to "no member", and the outer group still
///    exists because its rows were seen. The two modes therefore coincide
///    here, which is exactly why the paper restricts strict mode to
///    positions where the distinction cannot matter.)
///
/// The outermost level emits its nesting-attribute prefix for groups whose
/// predicate is TRUE. Output schema = outermost nesting attributes.
class FusedNestSelectNode final : public ExecNode {
 public:
  /// `child` must produce rows grouped (contiguous) by every level's
  /// `nesting_attrs`.
  FusedNestSelectNode(ExecNodePtr child, std::vector<FusedLevelSpec> levels);

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FusedNestSelect"; }
  PipelineRole role() const override {
    return PipelineRole::kSerialStreaming;
  }
  std::string detail() const override;
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

  /// Groups closed at each level so far (bench counter; index 0 = outermost).
  const std::vector<int64_t>& groups_closed() const { return groups_closed_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override {
    return NextRowFromBatch(out, eof);
  }
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override { child_->Close(); }

 private:
  struct LevelState {
    std::vector<int> key_idx;    // group key columns (flat schema)
    int linking_idx = -1;        // pred's outer attribute (flat schema)
    int linked_idx = -1;         // pred's member attribute (flat schema)
    int member_key_idx = -1;     // pred's member primary key (flat schema)
    std::vector<int> pad_idx;    // output positions to null on pseudo fail
    LinkingAccumulator acc;
    bool open = false;

    // Instead of copying the full (wide) representative row, each open
    // group keeps only the values FinalizeLevelBatch reads — the level-0
    // output prefix, or the member key/linked value fed to the enclosing
    // accumulator.
    std::vector<Value> rep_out;  // level 0: values at output_idx_
    Value rep_member;            // level > 0: value at parent member_key_idx
    Value rep_linked;            // level > 0: value at parent linked_idx
#ifndef NDEBUG
    std::vector<Value> open_key;  // the open group's key, for closed_keys_
#endif
  };

#ifndef NDEBUG
  // Total order over group keys, for the contiguity check.
  struct KeyLess {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  // Per level, every group key closed so far: a key that opens again means
  // the input was not grouped.
  std::vector<std::set<std::vector<Value>, KeyLess>> closed_keys_;
#endif

  // Closes level `i`, feeding the member upward or emitting into `out` at
  // level 0. Fails when the level's linking predicate could not be
  // evaluated (an integer SUM out of range).
  Status FinalizeLevelBatch(int i, RowBatch* out);
  // Opens a group at level `i` with row `r` of input_ as representative.
  void OpenLevelBatch(int i, int64_t r);
  // True when level `i`'s group key differs between row `r` of input_ and
  // the previous stream row (row r-1, or prev_keys_ across batches).
  bool KeyChangedBatch(int i, int64_t r) const;
  Status ProcessBatchRow(int64_t r, RowBatch* out);

  ExecNodePtr child_;
  std::vector<FusedLevelSpec> specs_;
  Schema schema_;
  std::vector<int> output_idx_;  // outermost nesting attrs in flat schema

  std::vector<LevelState> levels_;
  bool has_prev_ = false;
  bool input_done_ = false;
  std::vector<int64_t> groups_closed_;

  // The innermost level's nesting attributes contain every level's
  // (§4.2.1 prefix property), so prev_keys_ holds just those columns'
  // values for the last row of the previous batch; per-level key compares
  // go through key_slot_ (position of each level key in the innermost key
  // list).
  RowBatch input_;
  std::vector<Value> prev_keys_;
  std::vector<std::vector<size_t>> key_slot_;
};

}  // namespace nestra

#endif  // NESTRA_NESTED_FUSED_NEST_SELECT_H_
