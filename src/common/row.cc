#include "common/row.h"

#include <sstream>

namespace nestra {

Row Row::Concat(const Row& left, const Row& right) {
  std::vector<Value> out;
  out.reserve(left.values_.size() + right.values_.size());
  out.insert(out.end(), left.values_.begin(), left.values_.end());
  out.insert(out.end(), right.values_.begin(), right.values_.end());
  return Row(std::move(out));
}

Row Row::Nulls(int n) {
  return Row(std::vector<Value>(static_cast<size_t>(n)));
}

Row Row::Select(const std::vector<int>& indices) const {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (int i : indices) out.push_back(values_[i]);
  return Row(std::move(out));
}

int Row::Compare(const Row& a, const Row& b) {
  const int n = std::min(a.size(), b.size());
  for (int i = 0; i < n; ++i) {
    const int c = Value::TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  return a.size() - b.size();
}

int Row::CompareOn(const Row& a, const Row& b, const std::vector<int>& keys) {
  for (int k : keys) {
    const int c = Value::TotalOrderCompare(a[k], b[k]);
    if (c != 0) return c;
  }
  return 0;
}

std::string Row::ToString() const {
  std::ostringstream oss;
  oss << "[";
  for (int i = 0; i < size(); ++i) {
    if (i > 0) oss << ", ";
    oss << values_[i].ToString();
  }
  oss << "]";
  return oss.str();
}

}  // namespace nestra
