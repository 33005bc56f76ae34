#include "exec/aggregate.h"

#include <algorithm>

namespace nestra {

namespace {

TypeId AggOutputType(AggFunc func, const Schema& in, int col_idx) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kAvg:
      return TypeId::kFloat64;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return col_idx >= 0 ? in.field(col_idx).type : TypeId::kInt64;
  }
  return TypeId::kInt64;
}

}  // namespace

AggregateNode::AggregateNode(ExecNodePtr child,
                             std::vector<std::string> group_by,
                             std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  // Schema computed eagerly; unresolvable columns surface at Open().
  const Schema& in = child_->output_schema();
  std::vector<Field> fields;
  for (const std::string& g : group_by_) {
    const Result<int> idx = in.Resolve(g);
    if (idx.ok()) {
      fields.push_back(in.field(*idx));
    } else {
      fields.emplace_back(g, TypeId::kInt64);
    }
  }
  for (const AggSpec& a : aggs_) {
    int idx = -1;
    if (a.func != AggFunc::kCountStar) {
      const Result<int> r = in.Resolve(a.column);
      if (r.ok()) idx = *r;
    }
    fields.emplace_back(a.output_name, AggOutputType(a.func, in, idx),
                        /*nullable=*/true);
  }
  schema_ = Schema(std::move(fields));
}

Status AggregateNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  const Schema& in = child_->output_schema();
  group_idx_.clear();
  agg_idx_.clear();
  for (const std::string& g : group_by_) {
    NESTRA_ASSIGN_OR_RETURN(int idx, in.Resolve(g));
    group_idx_.push_back(idx);
  }
  for (const AggSpec& a : aggs_) {
    if (a.func == AggFunc::kCountStar) {
      agg_idx_.push_back(-1);
    } else {
      NESTRA_ASSIGN_OR_RETURN(int idx, in.Resolve(a.column));
      agg_idx_.push_back(idx);
    }
  }

  std::unordered_map<std::vector<Value>, std::vector<AggState>,
                     SqlValueKeyHash, SqlValueKeyEq>
      groups;
  Row row;
  bool eof = false;
  int64_t input_rows = 0;
  while (true) {
    NESTRA_RETURN_NOT_OK(child_->Next(&row, &eof));
    if (eof) break;
    ++input_rows;
    std::vector<Value> key;
    key.reserve(group_idx_.size());
    for (int idx : group_idx_) key.push_back(row[idx]);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(std::move(key),
                          std::vector<AggState>(aggs_.size()))
               .first;
    }
    Accumulate(&it->second, row);
  }

  results_.clear();
  pos_ = 0;
  if (group_by_.empty() && input_rows == 0) {
    // Scalar aggregate over empty input still yields one row.
    NESTRA_ASSIGN_OR_RETURN(
        Row row, Finalize({}, std::vector<AggState>(aggs_.size())));
    results_.push_back(std::move(row));
  } else {
    results_.reserve(groups.size());
    for (const auto& [key, states] : groups) {
      NESTRA_ASSIGN_OR_RETURN(Row row, Finalize(key, states));
      results_.push_back(std::move(row));
    }
    // Deterministic output order for tests.
    std::sort(results_.begin(), results_.end(),
              [](const Row& a, const Row& b) { return Row::Compare(a, b) < 0; });
  }
  return Status::OK();
}

void AggregateNode::Accumulate(std::vector<AggState>* states,
                               const Row& row) const {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = (*states)[i];
    if (aggs_[i].func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    const Value& v = row[agg_idx_[i]];
    if (v.is_null()) continue;
    switch (aggs_[i].func) {
      case AggFunc::kCountStar:
        break;  // handled above
      case AggFunc::kCount:
        ++st.count;
        break;
      case AggFunc::kSum:
        ++st.count;
        st.sum.Add(v);
        break;
      case AggFunc::kAvg:
        ++st.count;
        st.avg_sum += v.AsDouble().value_or(0);
        break;
      case AggFunc::kMin: {
        if (st.extreme.is_null() ||
            Value::TotalOrderCompare(v, st.extreme) < 0) {
          st.extreme = v;
        }
        break;
      }
      case AggFunc::kMax: {
        if (st.extreme.is_null() ||
            Value::TotalOrderCompare(v, st.extreme) > 0) {
          st.extreme = v;
        }
        break;
      }
    }
  }
}

Result<Row> AggregateNode::Finalize(const std::vector<Value>& key,
                                    const std::vector<AggState>& states) const {
  Row out;
  out.Reserve(key.size() + states.size());
  for (const Value& k : key) out.Append(k);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState& st = states[i];
    switch (aggs_[i].func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        out.Append(Value::Int64(st.count));
        break;
      case AggFunc::kSum:
        if (st.count == 0) {
          out.Append(Value::Null());
        } else {
          NESTRA_ASSIGN_OR_RETURN(Value sum, st.sum.Finish());
          out.Append(std::move(sum));
        }
        break;
      case AggFunc::kAvg:
        out.Append(st.count == 0 ? Value::Null()
                                 : Value::Float64(st.avg_sum / st.count));
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        out.Append(st.extreme);
        break;
    }
  }
  return out;
}

Status AggregateNode::NextImpl(Row* out, bool* eof) {
  if (pos_ >= results_.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = std::move(results_[pos_++]);
  return Status::OK();
}

void AggregateNode::CloseImpl() {
  results_.clear();
  child_->Close();
}

}  // namespace nestra
