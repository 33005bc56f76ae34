#include "nested/fused_nest_select.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nestra {

namespace {
// Group-boundary test between two cells of the same column, matching
// Value::TotalOrderCompare equality (double equality is !(x<y) && !(x>y),
// so NaNs compare "equal"; int cells compare exactly).
bool CellsDiffer(const ColumnVector& col, int64_t a, int64_t b) {
  const bool an = col.IsNull(a);
  const bool bn = col.IsNull(b);
  if (an || bn) return an != bn;
  if (col.generic()) {
    return Value::TotalOrderCompare(col.values()[a], col.values()[b]) != 0;
  }
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate:
      return col.ints()[a] != col.ints()[b];
    case TypeId::kFloat64: {
      const double x = col.doubles()[a];
      const double y = col.doubles()[b];
      return x < y || x > y;
    }
    case TypeId::kString:
      return col.strings()[a] != col.strings()[b];
  }
  return false;
}
}  // namespace

FusedNestSelectNode::FusedNestSelectNode(ExecNodePtr child,
                                         std::vector<FusedLevelSpec> levels)
    : child_(std::move(child)), specs_(std::move(levels)) {
  // Output schema: the outermost level's nesting attributes. Resolution
  // errors surface at Open(); construct a best-effort schema here.
  const Schema& in = child_->output_schema();
  std::vector<Field> fields;
  if (!specs_.empty()) {
    for (const std::string& a : specs_[0].nesting_attrs) {
      const Result<int> idx = in.Resolve(a);
      fields.push_back(idx.ok() ? in.field(*idx) : Field(a, TypeId::kInt64));
    }
  }
  schema_ = Schema(std::move(fields));
}

Status FusedNestSelectNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  if (specs_.empty()) {
    return Status::InvalidArgument("FusedNestSelect requires >= 1 level");
  }
  const Schema& in = child_->output_schema();

  levels_.clear();
  levels_.resize(specs_.size());
  groups_closed_.assign(specs_.size(), 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    LevelState& st = levels_[i];
    for (const std::string& a : specs_[i].nesting_attrs) {
      NESTRA_ASSIGN_OR_RETURN(int idx, in.Resolve(a));
      st.key_idx.push_back(idx);
    }
    const LinkingPredicate& p = specs_[i].pred;
    NESTRA_ASSIGN_OR_RETURN(st.member_key_idx, in.Resolve(p.member_key_attr));
    if (p.kind == LinkingPredicate::Kind::kQuantified ||
        p.kind == LinkingPredicate::Kind::kAggregate) {
      if (!p.linking_is_const) {
        NESTRA_ASSIGN_OR_RETURN(st.linking_idx, in.Resolve(p.linking_attr));
      }
      if (!p.linked_attr.empty()) {  // empty for COUNT(*)
        NESTRA_ASSIGN_OR_RETURN(st.linked_idx, in.Resolve(p.linked_attr));
      }
    }
    st.acc = LinkingAccumulator(p);
    // Containment check: each level's keys must include the previous
    // level's keys (prefix property of §4.2.1).
    if (i > 0) {
      for (int k : levels_[i - 1].key_idx) {
        const bool found = std::find(st.key_idx.begin(), st.key_idx.end(),
                                     k) != st.key_idx.end();
        if (!found) {
          return Status::InvalidArgument(
              "FusedNestSelect: level " + std::to_string(i) +
              " nesting attributes do not contain level " +
              std::to_string(i - 1) + "'s");
        }
      }
    }
  }

  output_idx_ = levels_[0].key_idx;
  // Pad positions are indices into the OUTPUT row (level-0 prefix).
  for (const std::string& a : specs_[0].pad_attrs) {
    NESTRA_ASSIGN_OR_RETURN(int flat, in.Resolve(a));
    for (size_t k = 0; k < output_idx_.size(); ++k) {
      if (output_idx_[k] == flat) {
        levels_[0].pad_idx.push_back(static_cast<int>(k));
      }
    }
  }
  has_prev_ = false;
  input_done_ = false;
#ifndef NDEBUG
  closed_keys_.assign(levels_.size(), {});
#endif

  // Map each level's key columns to their position in the innermost key
  // list (a superset of every level's keys, per the containment check
  // above), so cross-batch boundary state is just the innermost key values
  // of the last row seen.
  prev_keys_.clear();
  key_slot_.assign(levels_.size(), {});
  const std::vector<int>& inner_keys = levels_.back().key_idx;
  for (size_t i = 0; i < levels_.size(); ++i) {
    for (const int k : levels_[i].key_idx) {
      const auto it = std::find(inner_keys.begin(), inner_keys.end(), k);
      NESTRA_DCHECK(it != inner_keys.end());
      key_slot_[i].push_back(static_cast<size_t>(it - inner_keys.begin()));
    }
  }
  return Status::OK();
}

#ifndef NDEBUG
bool FusedNestSelectNode::KeyLess::operator()(
    const std::vector<Value>& a, const std::vector<Value>& b) const {
  for (size_t k = 0; k < a.size() && k < b.size(); ++k) {
    const int c = Value::TotalOrderCompare(a[k], b[k]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}
#endif

void FusedNestSelectNode::OpenLevelBatch(int i, int64_t r) {
  LevelState& st = levels_[i];
  st.open = true;
#ifndef NDEBUG
  st.open_key.clear();
  for (const int k : st.key_idx) {
    st.open_key.push_back(input_.column(k).GetValue(r));
  }
  // A key that already closed reopens only when its rows were not
  // contiguous: the input was not grouped by this level's attributes.
  NESTRA_DCHECK(closed_keys_[i].count(st.open_key) == 0);
#endif
  st.acc.Reset(st.linking_idx >= 0 ? input_.column(st.linking_idx).GetValue(r)
                                   : specs_[i].pred.linking_const);
  if (i == 0) {
    st.rep_out.clear();
    for (const int k : output_idx_) {
      st.rep_out.push_back(input_.column(k).GetValue(r));
    }
    return;
  }
  const LevelState& parent = levels_[i - 1];
  st.rep_member = input_.column(parent.member_key_idx).GetValue(r);
  st.rep_linked = parent.linked_idx >= 0
                      ? input_.column(parent.linked_idx).GetValue(r)
                      : Value::Null();
}

Status FusedNestSelectNode::FinalizeLevelBatch(int i, RowBatch* out) {
  LevelState& st = levels_[i];
  st.open = false;
  ++groups_closed_[i];
#ifndef NDEBUG
  closed_keys_[i].insert(std::move(st.open_key));
#endif
  NESTRA_RETURN_NOT_OK(st.acc.status());
  const TriBool r = st.acc.Result();
  if (i == 0) {
    const bool pass = IsTrue(r);
    if (!pass && specs_[0].mode != SelectionMode::kPseudo) {
      return Status::OK();
    }
    Row row(std::vector<Value>(st.rep_out.begin(), st.rep_out.end()));
    if (!pass) {
      for (const int k : st.pad_idx) row[k] = Value::Null();
    }
    out->AppendRow(std::move(row));
    return Status::OK();
  }
  // Contribute a member to the enclosing level. The member's key and linked
  // values are this group's constants, kept from its representative row; a
  // failing group contributes nothing (see class comment).
  LevelState& parent = levels_[i - 1];
  if (IsTrue(r)) parent.acc.Add(st.rep_member, st.rep_linked);
  return Status::OK();
}

bool FusedNestSelectNode::KeyChangedBatch(int i, int64_t r) const {
  const LevelState& st = levels_[i];
  if (r > 0) {
    for (const int k : st.key_idx) {
      if (CellsDiffer(input_.column(k), r - 1, r)) return true;
    }
    return false;
  }
  // First row of a batch: compare against the saved innermost key values
  // of the previous batch's last row.
  for (size_t j = 0; j < st.key_idx.size(); ++j) {
    const Value& prev = prev_keys_[key_slot_[i][j]];
    if (Value::TotalOrderCompare(prev,
                                 input_.column(st.key_idx[j]).GetValue(r)) !=
        0) {
      return true;
    }
  }
  return false;
}

Status FusedNestSelectNode::ProcessBatchRow(int64_t r, RowBatch* out) {
  const int m = static_cast<int>(levels_.size());
  if (!has_prev_) {
    for (int i = 0; i < m; ++i) OpenLevelBatch(i, r);
    has_prev_ = true;
  } else {
    int boundary = m;
    for (int i = 0; i < m; ++i) {
      if (KeyChangedBatch(i, r)) {
        boundary = i;
        break;
      }
    }
    if (boundary < m) {
      for (int i = m - 1; i >= boundary; --i) {
        NESTRA_RETURN_NOT_OK(FinalizeLevelBatch(i, out));
      }
      for (int i = boundary; i < m; ++i) OpenLevelBatch(i, r);
    }
  }
  LevelState& inner = levels_[m - 1];
  inner.acc.Add(input_.column(inner.member_key_idx).GetValue(r),
                inner.linked_idx >= 0
                    ? input_.column(inner.linked_idx).GetValue(r)
                    : Value::Null());
  return Status::OK();
}

Status FusedNestSelectNode::NextBatchImpl(RowBatch* out, bool* eof) {
  const int m = static_cast<int>(levels_.size());
  while (out->empty()) {
    if (input_done_) break;
    bool child_eof = false;
    NESTRA_RETURN_NOT_OK(child_->NextBatch(&input_, &child_eof));
    if (child_eof) {
      input_done_ = true;
      if (has_prev_) {
        for (int i = m - 1; i >= 0; --i) {
          NESTRA_RETURN_NOT_OK(FinalizeLevelBatch(i, out));
        }
      }
      break;
    }
    const int64_t n = input_.num_rows();
    for (int64_t r = 0; r < n; ++r) {
      NESTRA_RETURN_NOT_OK(ProcessBatchRow(r, out));
    }
    // Boundary state for the next batch's first row.
    const LevelState& inner = levels_[m - 1];
    prev_keys_.clear();
    for (const int k : inner.key_idx) {
      prev_keys_.push_back(input_.column(k).GetValue(n - 1));
    }
  }
  *eof = out->empty();
  return Status::OK();
}

std::string FusedNestSelectNode::detail() const {
  std::string d = "levels=" + std::to_string(specs_.size()) + " groups=[";
  for (size_t i = 0; i < groups_closed_.size(); ++i) {
    if (i > 0) d += ',';
    d += std::to_string(groups_closed_[i]);
  }
  d += ']';
  return d;
}

}  // namespace nestra
