#ifndef NESTRA_COMMON_ROW_H_
#define NESTRA_COMMON_ROW_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/value.h"

namespace nestra {

/// \brief A flat tuple of values, positionally aligned with some Schema.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}
  Row(std::initializer_list<Value> values) : values_(values) {}

  int size() const { return static_cast<int>(values_.size()); }
  bool empty() const { return values_.empty(); }

  const Value& operator[](int i) const { return values_[i]; }
  Value& operator[](int i) { return values_[i]; }

  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& values() { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }
  void Reserve(size_t n) { values_.reserve(n); }

  /// Concatenation, e.g. for join outputs.
  static Row Concat(const Row& left, const Row& right);

  /// Row of `n` NULLs (outer-join padding).
  static Row Nulls(int n);

  /// Projection onto the given column indices, in order.
  Row Select(const std::vector<int>& indices) const;

  /// Deep equality (NULL == NULL), consistent with Value::operator==.
  bool operator==(const Row& other) const { return values_ == other.values_; }
  bool operator!=(const Row& other) const { return !(*this == other); }

  /// Lexicographic total order (per Value::TotalOrderCompare). Used for
  /// deterministic test comparison and sort-based nesting.
  static int Compare(const Row& a, const Row& b);

  /// Lexicographic comparison restricted to `keys` column indices.
  static int CompareOn(const Row& a, const Row& b, const std::vector<int>& keys);

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_ROW_H_
