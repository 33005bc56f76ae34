#ifndef NESTRA_COMMON_SCHEMA_H_
#define NESTRA_COMMON_SCHEMA_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace nestra {

/// \brief A named, typed column.
///
/// Field names inside the engine are usually qualified ("r.a") once a table
/// has been scanned under an alias; catalog-level base-table fields are
/// unqualified ("a").
struct Field {
  std::string name;
  TypeId type = TypeId::kInt64;
  bool nullable = true;

  Field() = default;
  Field(std::string name_in, TypeId type_in, bool nullable_in = true)
      : name(std::move(name_in)), type(type_in), nullable(nullable_in) {}

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type &&
           nullable == other.nullable;
  }
};

/// \brief An ordered list of fields with name resolution.
///
/// Resolution rules (used by the expression binder):
///  * an exact match wins;
///  * otherwise an unqualified name `c` matches any field named `*.c`;
///  * zero matches -> NotFound, more than one -> ambiguous BindError.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}
  Schema(std::initializer_list<Field> fields) : fields_(fields) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field with exactly this name, or -1.
  int IndexOfExact(const std::string& name) const;

  /// Full resolution (exact, then unqualified-suffix). See class comment.
  Result<int> Resolve(const std::string& name) const;

  /// Schema with all field names prefixed by "<qualifier>." (existing
  /// qualifiers are replaced: "x.a" scanned as r becomes "r.a").
  Schema Qualify(const std::string& qualifier) const;

  /// Concatenation (for join outputs). Duplicate names are allowed here;
  /// the binder's ambiguity detection protects users.
  static Schema Concat(const Schema& left, const Schema& right);

  /// Sub-schema of the given field indices, in order.
  Schema Select(const std::vector<int>& indices) const;

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// Strips a leading "qualifier." from a column name, if present.
std::string UnqualifiedName(const std::string& name);

}  // namespace nestra

#endif  // NESTRA_COMMON_SCHEMA_H_
