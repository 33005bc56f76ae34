#ifndef NESTRA_EXEC_AGGREGATE_H_
#define NESTRA_EXEC_AGGREGATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/exact_sum.h"
#include "common/hash_key.h"
#include "exec/exec_node.h"

namespace nestra {

/// \brief Aggregate functions supported by the hash aggregation node.
///
/// COUNT(col) ignores NULLs; COUNT(*) counts rows; MIN/MAX/SUM/AVG return
/// NULL over an all-NULL (or empty) input, matching SQL. These are what the
/// count-based and max-based rewrite baselines of Section 2 need.
enum class AggFunc { kCountStar, kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFunc func;
  std::string column;       // ignored for kCountStar
  std::string output_name;  // name of the produced field
};

/// \brief Hash group-by aggregation. Grouping follows the SQL comparator
/// (common/hash_key.h): NULL group keys form a single group and numerically
/// equal int64/float64 keys group together (SQL GROUP BY semantics).
///
/// With an empty `group_by` this is a scalar aggregate producing exactly one
/// row even for empty input (COUNT(*) = 0 etc.), which is exactly the
/// behaviour the COUNT-rewrite baseline depends on.
class AggregateNode final : public ExecNode {
 public:
  AggregateNode(ExecNodePtr child, std::vector<std::string> group_by,
                std::vector<AggSpec> aggs);

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Aggregate"; }
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  struct AggState {
    int64_t count = 0;        // rows (kCountStar) or non-null inputs
    ExactSum sum;             // SUM's running sum
    double avg_sum = 0;       // AVG's running sum
    Value extreme;            // running MIN/MAX (NULL until first input)
  };

  void Accumulate(std::vector<AggState>* states, const Row& row) const;
  // Fails with OutOfRange when an integer SUM left the int64 range.
  Result<Row> Finalize(const std::vector<Value>& key,
                       const std::vector<AggState>& states) const;

  ExecNodePtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;

  Schema schema_;
  std::vector<int> group_idx_;
  std::vector<int> agg_idx_;  // -1 for COUNT(*)

  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_AGGREGATE_H_
