#include "gate.h"

#include "baseline/nested_iteration.h"
#include "server/harness.h"

namespace perfbench {

using nestra::Status;
using nestra::Table;

Status OracleGate::Admit(const std::string& key, const Table& engine,
                         const Table& oracle) {
  if (!Table::BagEquals(engine, oracle)) {
    return Status::Internal("oracle mismatch for " + key + ": engine " +
                            std::to_string(engine.num_rows()) +
                            " rows, oracle " +
                            std::to_string(oracle.num_rows()) + " rows");
  }
  fingerprints_[key] = nestra::HashTable(engine);
  return Status::OK();
}

Status OracleGate::Agree(const std::string& key, const Table& other) const {
  if (!Matches(key, other)) {
    return Status::Internal("result of " + key +
                            " differs from its admitted fingerprint");
  }
  return Status::OK();
}

bool OracleGate::Matches(const std::string& key, const Table& result) const {
  auto it = fingerprints_.find(key);
  return it != fingerprints_.end() && it->second == nestra::HashTable(result);
}

nestra::Result<Table> OracleResult(const nestra::Catalog& catalog,
                                   const std::string& sql) {
  nestra::NestedIterationExecutor oracle(catalog);
  return oracle.ExecuteSql(sql);
}

}  // namespace perfbench
