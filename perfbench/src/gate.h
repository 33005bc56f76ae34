// The correctness gate: every distinct statement is checked once against
// the nested-iteration oracle (src/baseline) before timing, and its
// fingerprint is kept so each timed execution can be checked cheaply.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/table.h"
#include "storage/catalog.h"

namespace perfbench {

class OracleGate {
 public:
  /// Admits `key` when `engine` is bag-equal to `oracle`, storing the
  /// engine result's fingerprint (server/harness.h HashTable). Fails, and
  /// admits nothing, on a mismatch.
  nestra::Status Admit(const std::string& key, const nestra::Table& engine,
                       const nestra::Table& oracle);

  /// For an admitted key: `other` (another path to the same statement, e.g.
  /// a prepared execution) must have the admitted fingerprint.
  nestra::Status Agree(const std::string& key,
                       const nestra::Table& other) const;

  /// True when `result` has the fingerprint admitted under `key`. Const and
  /// lock-free: safe from many client threads once admission is over.
  bool Matches(const std::string& key, const nestra::Table& result) const;

 private:
  std::unordered_map<std::string, uint64_t> fingerprints_;
};

/// `sql` evaluated by the nested-iteration oracle (NestedIterationExecutor).
nestra::Result<nestra::Table> OracleResult(const nestra::Catalog& catalog,
                                           const std::string& sql);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
