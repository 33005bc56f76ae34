#include "nested/linking_selection.h"

namespace nestra {

namespace {

Result<std::vector<int>> ResolvePadAttrs(
    const Schema& atoms, const std::vector<std::string>& pad_attrs) {
  std::vector<int> out;
  out.reserve(pad_attrs.size());
  for (const std::string& a : pad_attrs) {
    NESTRA_ASSIGN_OR_RETURN(int idx, atoms.Resolve(a));
    out.push_back(idx);
  }
  return out;
}

}  // namespace

Result<Table> LinkingSelect(const NestedRelation& input,
                            const LinkingPredicate& pred, SelectionMode mode,
                            const std::vector<std::string>& pad_attrs) {
  NESTRA_ASSIGN_OR_RETURN(BoundLinkingPredicate bound,
                          BoundLinkingPredicate::Make(pred, input.schema()));
  std::vector<int> pad_idx;
  if (mode == SelectionMode::kPseudo) {
    NESTRA_ASSIGN_OR_RETURN(pad_idx,
                            ResolvePadAttrs(input.schema().atoms(), pad_attrs));
  }

  // Padded atoms become nullable.
  std::vector<Field> fields = input.schema().atoms().fields();
  for (int i : pad_idx) fields[i].nullable = true;
  Table out{Schema(std::move(fields))};
  out.Reserve(static_cast<size_t>(input.num_tuples()));

  for (const NestedTuple& t : input.tuples()) {
    NESTRA_ASSIGN_OR_RETURN(const TriBool r, bound.Eval(t));
    if (IsTrue(r)) {
      out.AppendUnchecked(t.atoms);
    } else if (mode == SelectionMode::kPseudo) {
      Row padded = t.atoms;
      for (int i : pad_idx) padded[i] = Value::Null();
      out.AppendUnchecked(std::move(padded));
    }
    // kStrict + not TRUE: dropped (UNKNOWN filters out, SQL WHERE style).
  }
  return out;
}

Result<NestedRelation> LinkingSelectNested(
    const NestedRelation& input, const LinkingPredicate& pred,
    SelectionMode mode, const std::vector<std::string>& pad_attrs) {
  NESTRA_ASSIGN_OR_RETURN(BoundLinkingPredicate bound,
                          BoundLinkingPredicate::Make(pred, input.schema()));
  std::vector<int> pad_idx;
  if (mode == SelectionMode::kPseudo) {
    NESTRA_ASSIGN_OR_RETURN(pad_idx,
                            ResolvePadAttrs(input.schema().atoms(), pad_attrs));
  }

  NestedRelation out(input.shared_schema());
  out.tuples().reserve(static_cast<size_t>(input.num_tuples()));
  for (const NestedTuple& t : input.tuples()) {
    NESTRA_ASSIGN_OR_RETURN(const TriBool r, bound.Eval(t));
    if (IsTrue(r)) {
      out.tuples().push_back(t);
    } else if (mode == SelectionMode::kPseudo) {
      NestedTuple padded = t;
      for (int i : pad_idx) padded.atoms[i] = Value::Null();
      out.tuples().push_back(std::move(padded));
    }
  }
  return out;
}

}  // namespace nestra
