#include "exec/hash_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"

namespace nestra {

namespace {

bool HasNullKey(const Row& row, const std::vector<int>& key_idx) {
  for (const int idx : key_idx) {
    if (row[idx].is_null()) return true;
  }
  return false;
}

}  // namespace

HashJoinNode::HashJoinNode(ExecNodePtr left, ExecNodePtr right,
                           JoinType join_type, std::vector<EquiPair> equi,
                           ExprPtr residual, int num_threads,
                           const JoinBuildHints& hints)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_type_(join_type),
      equi_(std::move(equi)),
      residual_(std::move(residual)),
      num_threads_(num_threads < 1 ? 1 : num_threads),
      hints_(hints) {
  // Schema is known at construction: joins never rename.
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeftOuter) {
    Schema padded = rs;
    if (join_type_ == JoinType::kLeftOuter) {
      // Outer padding makes every right field nullable.
      std::vector<Field> fields = rs.fields();
      for (Field& f : fields) f.nullable = true;
      padded = Schema(std::move(fields));
    }
    schema_ = Schema::Concat(ls, padded);
  } else {
    schema_ = ls;
  }
  right_width_ = rs.num_fields();
}

std::string HashJoinNode::detail() const {
  // The table actually built: a perfect hint that failed validation, or
  // one on a multi-key join, hashed instead.
  if (!perfect_built_) return hints_.build_left ? "build=left" : "";
  return hints_.build_left ? "build=left,perfect" : "perfect";
}

Status HashJoinNode::ChargeMem(int64_t bytes) {
  if (bytes == 0) return Status::OK();
  charged_mem_ += bytes;
  stats_.mem_bytes += bytes;
  if (stats_.mem_bytes > stats_.peak_mem_bytes) {
    stats_.peak_mem_bytes = stats_.mem_bytes;
  }
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    return mem->Charge(bytes);
  }
  return Status::OK();
}

void HashJoinNode::ReleaseMem(int64_t bytes) {
  if (bytes == 0) return;
  charged_mem_ -= bytes;
  stats_.mem_bytes -= bytes;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    mem->Release(bytes);
  }
}

Status HashJoinNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(left_->Open());
  NESTRA_RETURN_NOT_OK(right_->Open());

  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  left_key_idx_.clear();
  right_key_idx_.clear();
  for (const EquiPair& p : equi_) {
    NESTRA_ASSIGN_OR_RETURN(int li, ls.Resolve(p.left));
    NESTRA_ASSIGN_OR_RETURN(int ri, rs.Resolve(p.right));
    left_key_idx_.push_back(li);
    right_key_idx_.push_back(ri);
  }
  // Equi pairs come in matched (left, right) columns.
  NESTRA_DCHECK(left_key_idx_.size() == right_key_idx_.size());
  NESTRA_ASSIGN_OR_RETURN(
      bound_residual_,
      BoundPredicate::Make(residual_.get(), Schema::Concat(ls, rs)));

  pending_.clear();
  pending_pos_ = 0;
  probe_count_ = 0;

  if (hints_.build_left) {
    return MirroredBuildProbe();
  }

  // Drain the child serially (Next/NextBatch is a serial protocol), then
  // build the table over the materialized rows.
  std::vector<Row> rows;
  int64_t build_bytes = 0;
  NESTRA_RETURN_NOT_OK(DrainAllRows(right_.get(), &rows, &build_bytes));
  build_rows_ = static_cast<int64_t>(rows.size());
  NESTRA_RETURN_NOT_OK(ChargeMem(build_bytes));
  std::vector<uint8_t> null_key;
  NESTRA_RETURN_NOT_OK(BuildChains(std::move(rows), right_key_idx_, &null_key));
  build_has_null_key_ =
      std::find(null_key.begin(), null_key.end(), 1) != null_key.end();
  return Probe();
}

Status HashJoinNode::BuildChains(std::vector<Row> rows,
                                 const std::vector<int>& key_idx,
                                 std::vector<uint8_t>* null_key) {
  table_rows_ = std::move(rows);
  table_key_idx_ = key_idx;
  perfect_built_ = false;
  const size_t n = table_rows_.size();
  null_key->assign(n, 0);
  if (n == 0) return Status::OK();  // no slots: every probe misses

  // Perfect keying: a single equality key whose every non-NULL build value
  // is an int64 inside the hinted range. Validated against the actual
  // rows, so a wrong hint falls back to hash slots instead of corrupting
  // results.
  const int64_t min = hints_.perfect_min;
  const int64_t max = hints_.perfect_max;
  perfect_built_ = hints_.perfect && key_idx.size() == 1 && max >= min;
  for (size_t i = 0; perfect_built_ && i < n; ++i) {
    const Value& v = table_rows_[i][key_idx[0]];
    perfect_built_ =
        v.is_null() || (v.is_int() && v.int64() >= min && v.int64() <= max);
  }
  // Dense slots need no hashes; hash slots hash every non-NULL key.
  table_hash_.assign(perfect_built_ ? 0 : n, 0);
  ParallelForMorsels(static_cast<int64_t>(n), num_threads_,
                     [&](int64_t, int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) {
                         const size_t si = static_cast<size_t>(i);
                         if (HasNullKey(table_rows_[si], key_idx)) {
                           (*null_key)[si] = 1;
                         } else if (!perfect_built_) {
                           table_hash_[si] =
                               SqlKeyHashOn(table_rows_[si], key_idx);
                         }
                       }
                     });
  size_t slots = 16;
  if (perfect_built_) {
    slots = static_cast<size_t>(max - min + 1);  // estimator caps it at 2^22
  } else {
    while (slots < n * 2) slots <<= 1;
    mask_ = slots - 1;
  }
  head_.assign(slots, -1);
  next_.assign(n, -1);
  // Reverse insertion order: each push-front then leaves every chain in
  // arrival order.
  for (size_t i = n; i-- > 0;) {
    if ((*null_key)[i] != 0) continue;
    const size_t slot =
        perfect_built_
            ? static_cast<size_t>(table_rows_[i][key_idx[0]].int64() - min)
            : table_hash_[i] & mask_;
    next_[i] = head_[slot];
    head_[slot] = static_cast<int32_t>(i);
  }
  return ChargeMem(ChainBytes());
}

int64_t HashJoinNode::ChainBytes() const {
  return static_cast<int64_t>((head_.size() + next_.size()) * sizeof(int32_t) +
                              table_hash_.size() * sizeof(size_t));
}

void HashJoinNode::FreeChains() {
  ReleaseMem(ChainBytes());
  table_hash_ = std::vector<size_t>();
  head_ = std::vector<int32_t>();
  next_ = std::vector<int32_t>();
}

bool HashJoinNode::DenseKeyOf(const Value& v, int64_t* key) const {
  if (v.is_int()) {
    *key = v.int64();
    return *key >= hints_.perfect_min && *key <= hints_.perfect_max;
  }
  // SQL key equality: a float equal to an integer matches it, so integral
  // in-range doubles index the array; everything else matches nothing.
  const auto d = v.AsDouble();  // nullopt for NULL / string
  if (!d.has_value() || *d != std::floor(*d)) return false;
  if (*d < static_cast<double>(hints_.perfect_min) ||
      *d > static_cast<double>(hints_.perfect_max)) {
    return false;
  }
  *key = static_cast<int64_t>(*d);
  return true;
}

template <typename KeyAt>
void HashJoinNode::GatherCandidates(const KeyAt& key_at, size_t h,
                                    std::vector<int32_t>* out) const {
  if (head_.empty()) return;
  size_t slot = h & mask_;
  if (perfect_built_) {
    int64_t key = 0;
    if (!DenseKeyOf(key_at(0), &key)) return;
    slot = static_cast<size_t>(key - hints_.perfect_min);
  }
  for (int32_t j = head_[slot]; j >= 0; j = next_[static_cast<size_t>(j)]) {
    // A dense chain holds exactly this key. On a hash chain, equal keys
    // always hash equal (SqlHash is consistent with TotalOrderCompare), so
    // a hash mismatch can never hide a match.
    const size_t sj = static_cast<size_t>(j);
    bool equal = perfect_built_ || table_hash_[sj] == h;
    for (size_t k = 0; !perfect_built_ && equal && k < table_key_idx_.size();
         ++k) {
      equal = Value::TotalOrderCompare(
                  key_at(k), table_rows_[sj][table_key_idx_[k]]) == 0;
    }
    if (equal) out->push_back(j);
  }
}

void HashJoinNode::ProbeRow(const Row& left_row,
                            std::vector<int32_t>* candidates,
                            std::vector<Row>* out) const {
  const bool probe_null = HasNullKey(left_row, left_key_idx_);
  candidates->clear();
  if (!probe_null) {
    GatherCandidates(
        [&](size_t k) -> const Value& { return left_row[left_key_idx_[k]]; },
        perfect_built_ ? 0 : SqlKeyHashOn(left_row, left_key_idx_),
        candidates);
  }
  EmitMatches(left_row, probe_null, *candidates, out);
}

void HashJoinNode::EmitMatches(const Row& left_row, bool probe_null,
                               const std::vector<int32_t>& candidates,
                               std::vector<Row>* out) const {
  bool matched = false;
  for (const int32_t j : candidates) {
    Row combined =
        Row::Concat(left_row, table_rows_[static_cast<size_t>(j)]);
    if (!bound_residual_.Matches(combined)) continue;
    matched = true;
    if (join_type_ == JoinType::kInner ||
        join_type_ == JoinType::kLeftOuter) {
      // Joins never rename: the concatenated row is exactly as wide as
      // the schema fixed at construction.
      NESTRA_DCHECK(combined.size() == schema_.num_fields());
      out->push_back(std::move(combined));
      continue;
    }
    // Semi/anti flavors decide on the first residual-passing match.
    break;
  }

  switch (join_type_) {
    case JoinType::kInner:
      break;  // matches already emitted
    case JoinType::kLeftSemi:
      if (matched) out->push_back(left_row);
      break;
    case JoinType::kLeftOuter:
      if (!matched) {
        // NULL padding must line up with the right side's full width.
        NESTRA_DCHECK(left_row.size() + right_width_ == schema_.num_fields());
        out->push_back(Row::Concat(left_row, Row::Nulls(right_width_)));
      }
      break;
    case JoinType::kLeftAnti:
      if (!matched) out->push_back(left_row);
      break;
    case JoinType::kLeftAntiNullAware:
      if (!matched && NotInKeeps(probe_null)) out->push_back(left_row);
      break;
  }
}

bool HashJoinNode::NotInKeeps(bool probe_null) const {
  // NOT IN semantics (single conceptual key): the empty set keeps the row;
  // otherwise a NULL probe key or a NULL among the build keys makes the
  // comparison UNKNOWN, which drops it.
  return build_rows_ == 0 || (!probe_null && !build_has_null_key_);
}

Status HashJoinNode::Probe() {
  std::vector<Row> probe_rows;
  int64_t probe_bytes = 0;
  NESTRA_RETURN_NOT_OK(DrainAllRows(left_.get(), &probe_rows, &probe_bytes));
  NESTRA_RETURN_NOT_OK(ChargeMem(probe_bytes));
  const int64_t n = static_cast<int64_t>(probe_rows.size());
  probe_count_ = n;

  // Per-morsel output slots (one at one thread), concatenated in morsel
  // order: morsels are contiguous input ranges, so the result never
  // depends on the thread count.
  std::vector<std::vector<Row>> slots(
      static_cast<size_t>(MorselCount(n, num_threads_)));
  ParallelForMorsels(n, num_threads_,
                     [&](int64_t m, int64_t begin, int64_t end) {
                       std::vector<Row>& out = slots[static_cast<size_t>(m)];
                       std::vector<int32_t> candidates;
                       for (int64_t i = begin; i < end; ++i) {
                         ProbeRow(probe_rows[static_cast<size_t>(i)],
                                  &candidates, &out);
                       }
                     });
  FreeChains();

  size_t total = 0;
  for (const std::vector<Row>& s : slots) total += s.size();
  pending_.clear();
  pending_.reserve(total);
  for (std::vector<Row>& s : slots) {
    for (Row& r : s) pending_.push_back(std::move(r));
  }
  pending_pos_ = 0;
  // The materialized join result replaces the chains and the probe-side
  // rows as live state: charge it, then return the drained probe rows'
  // bytes (the vector dies with this frame). One RowBytes walk at a fold
  // point.
  int64_t pending_bytes = 0;
  for (const Row& r : pending_) pending_bytes += RowBytes(r);
  Status charged = ChargeMem(pending_bytes);
  ReleaseMem(probe_bytes);
  return charged;
}

Status HashJoinNode::MirroredBuildProbe() {
  // Build-side swap: the estimator says the right input dwarfs the left,
  // so build the table over the LEFT rows and stream the right input past
  // it. Join semantics stay probe-side (left): matches are collected in
  // right arrival order, then stably regrouped by left row, which
  // reproduces the default plan's output — per left row in arrival order,
  // that row's matches in right arrival order — byte for byte.
  // Drain right first, left second — the same child order as the default
  // build+probe, so IoSim sees an identical scan sequence.
  std::vector<Row> right_rows;
  std::vector<Row> left_rows;
  int64_t input_bytes = 0;
  NESTRA_RETURN_NOT_OK(DrainAllRows(right_.get(), &right_rows, &input_bytes));
  NESTRA_RETURN_NOT_OK(DrainAllRows(left_.get(), &left_rows, &input_bytes));
  NESTRA_RETURN_NOT_OK(ChargeMem(input_bytes));
  const int64_t nl = static_cast<int64_t>(left_rows.size());
  const int64_t nr = static_cast<int64_t>(right_rows.size());
  // The counters keep their logical meaning (build = right input, probe =
  // left input) so EXPLAIN/bench numbers compare across strategies.
  build_rows_ = nr;
  probe_count_ = nl;

  // NULL left keys are never linked; they only feed the NOT IN epilogue.
  std::vector<uint8_t> left_null;
  NESTRA_RETURN_NOT_OK(
      BuildChains(std::move(left_rows), left_key_idx_, &left_null));

  const bool combining = join_type_ == JoinType::kInner ||
                         join_type_ == JoinType::kLeftOuter;

  // Stream the right rows in morsels; per-morsel slots concatenated in
  // morsel order keep the global match stream in right arrival order.
  struct Match {
    int64_t left;
    Row combined;
  };
  const int64_t morsels = MorselCount(nr, num_threads_);
  std::vector<std::vector<Match>> match_slots(static_cast<size_t>(morsels));
  std::vector<std::vector<int64_t>> flag_slots(static_cast<size_t>(morsels));
  std::vector<uint8_t> right_null(static_cast<size_t>(morsels), 0);
  ParallelForMorsels(nr, num_threads_, [&](int64_t m, int64_t begin,
                                           int64_t end) {
    std::vector<Match>& matches = match_slots[static_cast<size_t>(m)];
    std::vector<int64_t>& flags = flag_slots[static_cast<size_t>(m)];
    std::vector<int32_t> candidates;
    for (int64_t j = begin; j < end; ++j) {
      const Row& right_row = right_rows[static_cast<size_t>(j)];
      if (HasNullKey(right_row, right_key_idx_)) {
        right_null[static_cast<size_t>(m)] = 1;
        continue;
      }
      candidates.clear();
      GatherCandidates(
          [&](size_t k) -> const Value& {
            return right_row[right_key_idx_[k]];
          },
          perfect_built_ ? 0 : SqlKeyHashOn(right_row, right_key_idx_),
          &candidates);
      for (const int32_t li : candidates) {
        Row combined =
            Row::Concat(table_rows_[static_cast<size_t>(li)], right_row);
        if (!bound_residual_.Matches(combined)) continue;
        if (combining) {
          matches.push_back(Match{li, std::move(combined)});
        } else {
          flags.push_back(li);
        }
      }
    }
  });
  build_has_null_key_ =
      std::find(right_null.begin(), right_null.end(), 1) != right_null.end();
  // Every right row has streamed past the chains: free them before the
  // regroup materializes the result.
  FreeChains();

  pending_.clear();
  pending_pos_ = 0;
  if (combining) {
    // Stable regroup by left index (counting sort): per left row, its
    // matches stay in right arrival order.
    int64_t total = 0;
    for (const std::vector<Match>& s : match_slots) {
      total += static_cast<int64_t>(s.size());
    }
    std::vector<int64_t> offsets(static_cast<size_t>(nl) + 1, 0);
    for (const std::vector<Match>& s : match_slots) {
      for (const Match& m : s) ++offsets[static_cast<size_t>(m.left) + 1];
    }
    for (int64_t i = 0; i < nl; ++i) {
      offsets[static_cast<size_t>(i) + 1] += offsets[static_cast<size_t>(i)];
    }
    std::vector<Row> ordered(static_cast<size_t>(total));
    std::vector<int64_t> pos(offsets.begin(), offsets.end() - 1);
    for (std::vector<Match>& s : match_slots) {
      for (Match& m : s) {
        ordered[static_cast<size_t>(pos[static_cast<size_t>(m.left)]++)] =
            std::move(m.combined);
      }
    }
    pending_.reserve(static_cast<size_t>(total));
    for (int64_t li = 0; li < nl; ++li) {
      const int64_t b = offsets[static_cast<size_t>(li)];
      const int64_t e = offsets[static_cast<size_t>(li) + 1];
      if (b == e) {
        if (join_type_ == JoinType::kLeftOuter) {
          pending_.push_back(Row::Concat(table_rows_[static_cast<size_t>(li)],
                                         Row::Nulls(right_width_)));
        }
        continue;
      }
      for (int64_t k = b; k < e; ++k) {
        pending_.push_back(std::move(ordered[static_cast<size_t>(k)]));
      }
    }
  } else {
    std::vector<uint8_t> matched(static_cast<size_t>(nl), 0);
    for (const std::vector<int64_t>& s : flag_slots) {
      for (const int64_t li : s) matched[static_cast<size_t>(li)] = 1;
    }
    for (int64_t li = 0; li < nl; ++li) {
      const size_t si = static_cast<size_t>(li);
      const bool hit = matched[si] != 0;
      bool emit = false;
      switch (join_type_) {
        case JoinType::kInner:
        case JoinType::kLeftOuter:
          break;  // handled above
        case JoinType::kLeftSemi:
          emit = hit;
          break;
        case JoinType::kLeftAnti:
          emit = !hit;
          break;
        case JoinType::kLeftAntiNullAware:
          emit = !hit && NotInKeeps(left_null[si] != 0);
          break;
      }
      if (emit) pending_.push_back(std::move(table_rows_[si]));
    }
  }
  // Same hand-over as Probe: the pending result becomes the live
  // state, the drained inputs die with this frame.
  int64_t pending_bytes = 0;
  for (const Row& r : pending_) pending_bytes += RowBytes(r);
  Status charged = ChargeMem(pending_bytes);
  ReleaseMem(input_bytes);
  return charged;
}

Status HashJoinNode::NextBatchImpl(RowBatch* out, bool* eof) {
  // Open already materialized the whole result; emit it in batch-sized
  // slices.
  size_t end = pending_pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity);
  if (end > pending_.size()) end = pending_.size();
  for (; pending_pos_ < end; ++pending_pos_) {
    out->AppendRow(std::move(pending_[pending_pos_]));
  }
  *eof = out->empty();
  return Status::OK();
}

bool HashJoinNode::TakeAllRows(std::vector<Row>* out, bool /*one_shot*/) {
  // The result's charge stays until Close, as it does after a batch drain.
  stats_.rows_out += static_cast<int64_t>(pending_.size() - pending_pos_);
  if (out->empty() && pending_pos_ == 0) {
    out->swap(pending_);
  } else {
    for (; pending_pos_ < pending_.size(); ++pending_pos_) {
      out->push_back(std::move(pending_[pending_pos_]));
    }
  }
  pending_.clear();
  pending_pos_ = 0;
  return true;
}

void HashJoinNode::CloseImpl() {
  stats_.build_rows = build_rows_;
  stats_.probe_rows = probe_count_;
  FreeChains();
  ReleaseMem(charged_mem_);
  pending_.clear();
  table_rows_.clear();
  left_->Close();
  right_->Close();
}

}  // namespace nestra
