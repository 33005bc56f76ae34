#include "exec/sort.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "common/parallel_sort.h"

namespace nestra {

namespace {
// Rough in-memory footprint of a row: variant header per value plus string
// payload. Only computed when profiling is on (it walks every value).
int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = 0;
  for (const Value& v : row.values()) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.is_string()) bytes += static_cast<int64_t>(v.string().size());
  }
  return bytes;
}
}  // namespace

Status SortNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  key_indices_.clear();
  key_asc_.clear();
  for (const SortKey& k : keys_) {
    NESTRA_ASSIGN_OR_RETURN(int idx, child_->output_schema().Resolve(k.column));
    key_indices_.push_back(idx);
    key_asc_.push_back(k.ascending);
  }
  rows_.clear();
  pos_ = 0;
  charged_bytes_ = 0;
  NESTRA_RETURN_NOT_OK(DrainAllRows(child_.get(), &rows_, &charged_bytes_));
  // Always-on byte accounting for the sort buffer: the drain already
  // computed the logical footprint, so this is just bookkeeping.
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
  }
  // Stable sort keeps input order within equal keys, which makes nested
  // groups deterministic for tests — and makes the parallel sort's output
  // identical to the serial one.
  ParallelStableSort(
      &rows_,
      [this](const Row& a, const Row& b) {
        for (size_t i = 0; i < key_indices_.size(); ++i) {
          const int c =
              Value::TotalOrderCompare(a[key_indices_[i]], b[key_indices_[i]]);
          if (c != 0) return key_asc_[i] ? c < 0 : c > 0;
        }
        return false;
      },
      num_threads_);
  stats_.sort_rows += static_cast<int64_t>(rows_.size());
  if (timing_) {
    for (const Row& r : rows_) stats_.sort_bytes += ApproxRowBytes(r);
  }
  return Status::OK();
}

void SortNode::CloseImpl() {
  rows_.clear();
  if (charged_bytes_ != 0) {
    if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
      mem->Release(charged_bytes_);
    }
    charged_bytes_ = 0;
    stats_.mem_bytes = 0;
  }
  child_->Close();
}

Status SortNode::NextImpl(Row* out, bool* eof) {
  if (pos_ >= rows_.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = std::move(rows_[pos_++]);
  return Status::OK();
}

Status SortNode::NextBatchImpl(RowBatch* out, bool* eof) {
  size_t end = pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity);
  if (end > rows_.size()) end = rows_.size();
  for (; pos_ < end; ++pos_) {
    out->AppendRow(std::move(rows_[pos_]));
  }
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
