#ifndef NESTRA_EXEC_SORT_H_
#define NESTRA_EXEC_SORT_H_

#include <string>
#include <vector>

#include "exec/exec_node.h"

namespace nestra {

/// \brief One ORDER BY key: column name + direction. NULLs sort first in
/// ascending order (per Value::TotalOrderCompare), last in descending.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// \brief Pipeline-breaking multi-key sort. This is the operator the
/// sort-based nest rides on: the "only the deepest nesting involves true
/// physical reordering" optimization (§4.2.1) is one SortNode for all levels.
///
/// With `num_threads > 1` the materialized input is sorted by a parallel
/// stable merge sort; the stable order is unique, so the result is
/// element-for-element identical to the serial sort.
///
/// Open drains the input through DrainAllRows, which takes a
/// TableSourceNode input's rows in bulk: a SortNode over a TableSourceNode
/// runs once, and its reopen fails with an error status.
class SortNode final : public ExecNode {
 public:
  /// The input is drained via NextBatch, so batch-capable children run
  /// columnar.
  SortNode(ExecNodePtr child, std::vector<SortKey> keys, int num_threads = 1)
      : child_(std::move(child)),
        keys_(std::move(keys)),
        num_threads_(num_threads < 1 ? 1 : num_threads) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "Sort"; }
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override;

 private:
  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  int num_threads_ = 1;
  std::vector<int> key_indices_;
  std::vector<bool> key_asc_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  int64_t charged_bytes_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_SORT_H_
