#ifndef NESTRA_STORAGE_BTREE_INDEX_H_
#define NESTRA_STORAGE_BTREE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/table.h"

namespace nestra {

/// \brief An in-memory B+-tree over one column of a table: ordered keys in
/// internal nodes, (key, row-id list) entries in chained leaves — the
/// structure System A "automatically built on the primary key of each base
/// table" (Section 5.1), here serving ordered and inequality probes.
///
/// Duplicates are supported (each leaf entry carries every row id for its
/// key); NULL key values are not indexed (no SQL comparison can select
/// them). The index is build-once: the engine's tables are immutable after
/// catalog registration, so deletion/rebalancing is intentionally out of
/// scope. `Insert` remains public for the structural property tests.
class BTreeIndex {
 public:
  /// `max_keys` is the node capacity (fan-out - 1); small values make the
  /// structural tests exercise deep trees.
  explicit BTreeIndex(int max_keys = 63);

  /// Builds over `table.rows()[i][column]`.
  BTreeIndex(const Table& table, int column, int max_keys = 63);

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  void Insert(const Value& key, int64_t row_id);

  /// Row ids of the rows r whose value v satisfies `v op key` for
  /// op in {=, <, <=, >, >=, <>}. NULL probes match nothing.
  std::vector<int64_t> Lookup(CmpOp op, const Value& key) const;

  /// Rows with lo <= v <= hi (bounds optional via NULL, inclusivity flags).
  std::vector<int64_t> Range(const Value& lo, bool lo_inclusive,
                             const Value& hi, bool hi_inclusive) const;

  int64_t num_keys() const { return num_keys_; }
  int64_t num_entries() const { return num_entries_; }
  int height() const { return height_; }
  int column() const { return column_; }

  /// Checks the B+-tree invariants (key ordering within nodes, separator
  /// correctness, uniform leaf depth, node fill, leaf chain order);
  /// returns false and writes a reason on violation. For tests.
  bool Validate(std::string* reason = nullptr) const;

 private:
  struct Node {
    bool leaf = true;
    std::vector<Value> keys;
    // Internal: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaf: rows[i] are the row ids for keys[i].
    std::vector<std::vector<int64_t>> rows;
    Node* next = nullptr;  // leaf chain
  };

  // Returns the leaf that should contain `key`, charging simulated I/O for
  // the root-to-leaf path.
  const Node* FindLeaf(const Value& key) const;

  // Insert into subtree; on split returns the new right sibling and sets
  // *separator to the key routed to the parent.
  std::unique_ptr<Node> InsertInto(Node* node, const Value& key,
                                   int64_t row_id, Value* separator);

  // First leaf of the chain.
  const Node* FirstLeaf() const;

  // Appends all row ids of entries in [start_leaf/start_idx, end) matching
  // the bound predicate.
  void CollectFrom(const Node* leaf, size_t idx, const Value& hi,
                   bool hi_inclusive, std::vector<int64_t>* out) const;

  int max_keys_;
  int column_ = -1;
  std::unique_ptr<Node> root_;
  int height_ = 1;
  int64_t num_keys_ = 0;
  int64_t num_entries_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_STORAGE_BTREE_INDEX_H_
