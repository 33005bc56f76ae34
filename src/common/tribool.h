#ifndef NESTRA_COMMON_TRIBOOL_H_
#define NESTRA_COMMON_TRIBOOL_H_

namespace nestra {

/// \brief SQL three-valued logic.
///
/// Every predicate in the library evaluates to a TriBool. A WHERE clause (and
/// both the strict and the pseudo linking selection of the paper) keeps a
/// tuple only when the predicate is `kTrue`; `kUnknown` behaves like `kFalse`
/// for filtering but propagates differently through NOT/AND/OR.
enum class TriBool { kFalse = 0, kUnknown = 1, kTrue = 2 };

constexpr TriBool MakeTriBool(bool b) {
  return b ? TriBool::kTrue : TriBool::kFalse;
}

/// Kleene conjunction: F dominates, then U, then T.
constexpr TriBool And(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kUnknown || b == TriBool::kUnknown) {
    return TriBool::kUnknown;
  }
  return TriBool::kTrue;
}

/// Kleene disjunction: T dominates, then U, then F.
constexpr TriBool Or(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kUnknown || b == TriBool::kUnknown) {
    return TriBool::kUnknown;
  }
  return TriBool::kFalse;
}

/// Kleene negation: NOT U = U.
constexpr TriBool Not(TriBool a) {
  switch (a) {
    case TriBool::kFalse:
      return TriBool::kTrue;
    case TriBool::kTrue:
      return TriBool::kFalse;
    case TriBool::kUnknown:
      return TriBool::kUnknown;
  }
  return TriBool::kUnknown;
}

/// SQL filter semantics: only definite truth passes.
constexpr bool IsTrue(TriBool a) { return a == TriBool::kTrue; }
constexpr bool IsFalse(TriBool a) { return a == TriBool::kFalse; }
constexpr bool IsUnknown(TriBool a) { return a == TriBool::kUnknown; }

}  // namespace nestra

#endif  // NESTRA_COMMON_TRIBOOL_H_
