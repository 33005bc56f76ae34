#ifndef NESTRA_BASELINE_NESTED_ITERATION_H_
#define NESTRA_BASELINE_NESTED_ITERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/evaluator.h"
#include "nested/linking_predicate.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief Options for the tuple-at-a-time baseline.
struct NestedIterOptions {
  /// Probe a hash index on the first equality-correlated column of each
  /// single-table subquery block, mirroring the paper's description of
  /// System A ("lineitem is accessed by index rowid"). Without indexes every
  /// subquery evaluation scans the filtered inner relation.
  bool use_indexes = true;
};

struct NestedIterStats {
  int64_t outer_tuples = 0;    // rows of the outermost block iterated
  int64_t subquery_evals = 0;  // linking-predicate evaluations
  int64_t candidate_rows = 0;  // inner rows examined across all evals
  int64_t index_probes = 0;
};

/// \brief The nested iteration method ("the traditional nested iteration
/// method" of Kim's motivation, and System A's fallback plan for ALL /
/// NOT IN): for every outer tuple, evaluate each subquery directly —
/// recursively — and test the linking predicate under SQL three-valued
/// logic.
///
/// This executor is also the library's correctness ORACLE: it follows SQL
/// tuple-iteration semantics with no rewriting whatsoever, so every other
/// evaluation strategy is property-tested against it. It evaluates every
/// predicate by BoundPredicate per row and joins by nested loops, so the
/// engine's compiled kernels and hash-join probes are checked against it
/// rather than shared with it.
class NestedIterationExecutor {
 public:
  explicit NestedIterationExecutor(const Catalog& catalog,
                                   NestedIterOptions options = {})
      : catalog_(catalog), options_(options) {}

  Result<Table> Execute(const QueryBlock& root,
                        NestedIterStats* stats = nullptr);
  Result<Table> ExecuteSql(const std::string& sql,
                           NestedIterStats* stats = nullptr);

 private:
  /// Per-block runtime state prepared once per Execute call.
  struct BlockRt {
    const QueryBlock* block = nullptr;
    Schema ctx_schema;    // concatenated schemas of the ancestor blocks
    Schema block_schema;  // this block's qualified schema
    Table filtered;       // T_i = sigma_i(R_i), for the scan path
    // Predicate over ctx ++ block rows: correlated (scan path) or
    // correlated AND local (index path, which reads unfiltered base rows).
    BoundPredicate residual;
    bool use_index = false;
    const Table* base_table = nullptr;  // index path
    const HashIndex* index = nullptr;   // equality probes
    const BTreeIndex* btree = nullptr;  // inequality probes (no equality
                                        // correlation available)
    CmpOp btree_op = CmpOp::kLt;        // block_value btree_op probe_value
    int probe_ctx_idx = -1;  // ctx column whose value probes the index
    // Linking predicate pieces.
    LinkingPredicate pred;
    int linking_ctx_idx = -1;  // in ctx schema; -1 for EXISTS forms
    int linked_idx = -1;       // in block schema; -1 for EXISTS forms
    std::vector<std::unique_ptr<BlockRt>> children;
  };

  Result<std::unique_ptr<BlockRt>> Prepare(const QueryBlock& block,
                                           const Schema& ctx_schema);

  /// Evaluates the child's linking predicate for one outer context row.
  Result<TriBool> EvalLink(const BlockRt& child, const Row& ctx,
                           NestedIterStats* stats);

  const Catalog& catalog_;
  NestedIterOptions options_;
};

}  // namespace nestra

#endif  // NESTRA_BASELINE_NESTED_ITERATION_H_
