#ifndef NESTRA_COMMON_EXACT_SUM_H_
#define NESTRA_COMMON_EXACT_SUM_H_

#include <cstdint>

#include "common/status.h"
#include "common/value.h"

namespace nestra {

/// \brief SQL SUM over non-NULL numeric values: exact in int64 while every
/// input is an integer, in double from the first non-integer input on. An
/// integer sum that leaves the int64 range is an error, never a wrapped or
/// rounded value. Shared by the root's AggregateNode and the aggregate
/// linking predicate, so both agree on every sum.
class ExactSum {
 public:
  void Add(const Value& v) {
    if (is_int_ && v.is_int()) {
      overflow_ |= __builtin_add_overflow(int_sum_, v.int64(), &int_sum_);
      return;
    }
    if (is_int_) {
      is_int_ = false;
      double_sum_ = static_cast<double>(int_sum_);
    }
    double_sum_ += v.AsDouble().value_or(0);
  }

  /// The sum of at least one input: Int64 when every input was an integer,
  /// else Float64; OutOfRange when the integer sum overflowed.
  Result<Value> Finish() const {
    if (overflow_) {
      return Status::OutOfRange("integer SUM exceeds the int64 range");
    }
    return is_int_ ? Value::Int64(int_sum_) : Value::Float64(double_sum_);
  }

 private:
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  bool is_int_ = true;
  bool overflow_ = false;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_EXACT_SUM_H_
