#ifndef NESTRA_EXEC_HASH_JOIN_H_
#define NESTRA_EXEC_HASH_JOIN_H_

#include <string>
#include <vector>

#include "common/hash_key.h"
#include "exec/exec_node.h"
#include "exec/join_hints.h"
#include "exec/join_type.h"
#include "expr/evaluator.h"

namespace nestra {

/// \brief Hash join: builds on the right input, probes with the left.
///
/// The join condition is `AND(equi pairs) AND residual`; the residual (an
/// arbitrary predicate over the concatenated schema) is evaluated per
/// candidate match, so conditions like the paper's
/// `T.K = R.C AND T.L <> S.I` run as a hash join on the equality with the
/// inequality as residual. With no equi pairs the build degenerates into a
/// single bucket (a filtered Cartesian product — the paper's "virtual
/// Cartesian product" for non-correlated subqueries).
///
/// For kInner/kLeftOuter the output schema is left ++ right (right side
/// NULL-padded for unmatched outer rows — this padding is what the nested
/// relational approach later reads as "empty subquery result" via the inner
/// relation's primary key). For semi/anti flavors the output schema is the
/// left schema.
///
/// Key equality follows SQL comparison semantics (common/hash_key.h): an
/// int64 key matches a float64 key of equal numeric value, exactly as the
/// nested-loop join's `Value::Apply(kEq)` would.
///
/// One build structure serves every thread count and both build sides:
/// the drained build rows stay in arrival order, and each table slot heads
/// an index chain through the rows in arrival order. A slot is
/// `hash & mask` — or `key - perfect_min` when the perfect hint holds for
/// every actual build key (a stale hint falls back to hashing). Keys are
/// hashed in parallel morsels and the chains are linked in one serial
/// pass. The default build has one probe at every thread count: it
/// materializes the left input and probes it in row-range morsels (a
/// single morsel at one thread) whose outputs are concatenated in morsel
/// order, so candidate order — and therefore output order, per probe row
/// its matches in build arrival order — never depends on the thread count.
///
/// Open computes the whole result. A consumer that materializes it anyway
/// (DrainAllRows, CollectTable) moves it out through TakeAllRows instead of
/// pulling it through batches.
///
/// The build and probe inputs drain through DrainAllRows, which takes a
/// TableSourceNode's rows in bulk: a join reading such an input from a
/// TableSourceNode runs once, and its reopen fails with an error status.
class HashJoinNode final : public ExecNode {
 public:
  /// `hints` carries the planner's cost-based physical strategy
  /// (exec/join_hints.h): build-side swap and/or perfect (dense-array)
  /// keying. Default hints reproduce the pre-stats behaviour bit for bit;
  /// non-default hints change only the internal table layout and work
  /// order, never output rows or their order.
  HashJoinNode(ExecNodePtr left, ExecNodePtr right, JoinType join_type,
               std::vector<EquiPair> equi, ExprPtr residual,
               int num_threads = 1, const JoinBuildHints& hints = {});

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override {
    return std::string("HashJoin[") + JoinTypeToString(join_type_) + "]";
  }
  /// Physical strategy annotation for EXPLAIN ANALYZE ("build=left",
  /// "perfect", comma separated); empty for the default plan. "perfect"
  /// reports the table actually built, not the hint.
  std::string detail() const override;
  // Open consumes both inputs and computes the whole result, which is what
  // pins joins to the breaker role.
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// Number of probe-side rows processed so far (for bench counters).
  int64_t probe_count() const { return probe_count_; }

  /// Moves the not-yet-emitted result rows out. Always succeeds on an
  /// opened join and never costs a reopen, which recomputes the result.
  bool TakeAllRows(std::vector<Row>* out, bool one_shot) override;

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override {
    return NextRowFromBatch(out, eof);
  }
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override;

 private:
  // Builds the join table over `rows` keyed on `key_idx` (right_key_idx_,
  // or left_key_idx_ for the mirrored build) and charges it. `null_key`
  // flags the rows with a NULL key column; those are never linked.
  Status BuildChains(std::vector<Row> rows, const std::vector<int>& key_idx,
                     std::vector<uint8_t>* null_key);
  // Logical bytes of the chain arrays plus the key hashes.
  int64_t ChainBytes() const;
  // Returns the chains' charge and frees them; no probe walks them after.
  void FreeChains();
  // Maps a probe key value to its dense slot key; false when the value
  // cannot equal any build key (NULL-free non-integral or out of range).
  bool DenseKeyOf(const Value& v, int64_t* key) const;
  // Appends to `out` the indices of the table rows whose key equals the
  // probe key, in arrival order. `key_at(k)` is the probe's k-th key value
  // (never NULL) and `h` its SqlKeyHashOn hash (ignored when perfect).
  // Read-only, so concurrent morsels may walk it with their own `out`.
  template <typename KeyAt>
  void GatherCandidates(const KeyAt& key_at, size_t h,
                        std::vector<int32_t>* out) const;
  // Emits every output row produced by one probe row of a Probe morsel;
  // `candidates` is the morsel's scratch. Thread-safe.
  void ProbeRow(const Row& left_row, std::vector<int32_t>* candidates,
                std::vector<Row>* out) const;
  // The per-probe-row epilogue over gathered candidates: matches in
  // candidate order, then the outer/anti handling.
  void EmitMatches(const Row& left_row, bool probe_null,
                   const std::vector<int32_t>& candidates,
                   std::vector<Row>* out) const;
  // NOT IN keep rule for a probe row with no residual-passing match.
  bool NotInKeeps(bool probe_null) const;
  // Materializes the left input and probes it with row-range morsels;
  // fills pending_ with the whole result.
  Status Probe();
  // hints_.build_left: builds the table over the left input instead and
  // streams the right past it, re-emitting in left order; fills pending_
  // with the whole result (byte-identical to the default build).
  Status MirroredBuildProbe();
  // Accounts `bytes` of build/probe state against OperatorStats and the
  // current query tracker (ResourceExhausted past the soft limit); called
  // at serial fold points only, never inside morsel workers.
  Status ChargeMem(int64_t bytes);
  // Returns previously charged bytes (peak stays).
  void ReleaseMem(int64_t bytes);

  ExecNodePtr left_;
  ExecNodePtr right_;
  JoinType join_type_;
  std::vector<EquiPair> equi_;
  ExprPtr residual_;
  int num_threads_ = 1;
  JoinBuildHints hints_;

  Schema schema_;
  int right_width_ = 0;

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  BoundPredicate bound_residual_;  // over left ++ right

  // Semantic build side (the right input), whichever side the table holds.
  bool build_has_null_key_ = false;  // for kLeftAntiNullAware
  int64_t build_rows_ = 0;

  // The join table (see the class comment): table_rows_ in arrival order,
  // head_[slot] the first row of a chain continued by next_[row]. Slots
  // are `table_hash_[row] & mask_`, or key - hints_.perfect_min when
  // perfect_built_ (then table_hash_ stays empty; the flag is kept past
  // Close for detail()).
  std::vector<Row> table_rows_;
  std::vector<int> table_key_idx_;
  std::vector<size_t> table_hash_;
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  size_t mask_ = 0;
  bool perfect_built_ = false;

  // The whole join result, filled by Open (Probe or MirroredBuildProbe)
  // and emitted from pending_pos_ on.
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  int64_t probe_count_ = 0;
  // Bytes currently charged to the query tracker (released in CloseImpl).
  int64_t charged_mem_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_HASH_JOIN_H_
