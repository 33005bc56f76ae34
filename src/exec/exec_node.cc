#include "exec/exec_node.h"

#include <chrono>

#include "common/memory_tracker.h"

namespace nestra {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

const char* QueryPhaseLabel(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kUnattributed:
      return "unattributed";
    case QueryPhase::kUnnestJoin:
      return "unnest-join";
    case QueryPhase::kNest:
      return "nest";
    case QueryPhase::kLinkingSelection:
      return "linking-selection";
    case QueryPhase::kPostProcessing:
      return "post-processing";
  }
  return "unknown";
}

const char* PipelineRoleLabel(PipelineRole role) {
  switch (role) {
    case PipelineRole::kSource:
      return "source";
    case PipelineRole::kStreaming:
      return "streaming";
    case PipelineRole::kSerialStreaming:
      return "serial-streaming";
    case PipelineRole::kBreaker:
      return "breaker";
  }
  return "unknown";
}

Status ExecNode::Open() {
  // A node re-used across Open() calls must not leak the previous run's
  // counters (or its timings) into this run's profile snapshot; open_calls
  // is the one cumulative field, so re-use stays visible.
  const int64_t open_calls = stats_.open_calls;
  stats_ = OperatorStats{};
  stats_.open_calls = open_calls + 1;
  adapter_saw_eof_ = false;
  row_buffer_.Clear();
  row_buffer_pos_ = 0;
  if (!timing_) return OpenImpl();
  const Clock::time_point start = Clock::now();
  Status s = OpenImpl();
  stats_.open_seconds += SecondsSince(start);
  return s;
}

Status ExecNode::Next(Row* out, bool* eof) {
  ++stats_.next_calls;
  if (!timing_) {
    Status s = NextImpl(out, eof);
    if (s.ok() && !*eof) ++stats_.rows_out;
    return s;
  }
  const Clock::time_point start = Clock::now();
  Status s = NextImpl(out, eof);
  stats_.next_seconds += SecondsSince(start);
  if (s.ok() && !*eof) ++stats_.rows_out;
  return s;
}

Status ExecNode::NextBatch(RowBatch* out, bool* eof) {
  ++stats_.next_calls;
  out->Reset(output_schema());
  if (!timing_) {
    Status s = NextBatchImpl(out, eof);
    if (s.ok() && !out->empty()) {
      stats_.rows_out += out->num_rows();
      ++stats_.batches_out;
      RecordBatchBytes(*out);
    }
    return s;
  }
  const Clock::time_point start = Clock::now();
  Status s = NextBatchImpl(out, eof);
  stats_.next_seconds += SecondsSince(start);
  if (s.ok() && !out->empty()) {
    stats_.rows_out += out->num_rows();
    ++stats_.batches_out;
    RecordBatchBytes(*out);
  }
  return s;
}

void ExecNode::RecordBatchBytes(const RowBatch& batch) {
  // The column vectors this node just filled are its transient working
  // set; the largest one is the node's batch-level memory peak. One
  // ByteSize walk per ~1024-row batch, never per row.
  const int64_t bytes = batch.ByteSize();
  if (bytes > stats_.peak_mem_bytes) stats_.peak_mem_bytes = bytes;
}

Status ExecNode::NextBatchImpl(RowBatch* out, bool* eof) {
  *eof = false;
  if (adapter_saw_eof_) {
    *eof = true;
    return Status::OK();
  }
  Row row;
  bool row_eof = false;
  while (out->num_rows() < RowBatch::kDefaultCapacity) {
    NESTRA_RETURN_NOT_OK(NextImpl(&row, &row_eof));
    if (row_eof) {
      adapter_saw_eof_ = true;
      break;
    }
    out->AppendRow(std::move(row));
    row = Row();
  }
  if (!out->empty()) ++stats_.adapter_batches;
  *eof = out->empty();
  return Status::OK();
}

Status ExecNode::NextRowFromBatch(Row* out, bool* eof) {
  if (row_buffer_pos_ >= row_buffer_.num_rows()) {
    row_buffer_.Reset(output_schema());
    row_buffer_pos_ = 0;
    bool batch_eof = false;
    NESTRA_RETURN_NOT_OK(NextBatchImpl(&row_buffer_, &batch_eof));
    if (batch_eof) {
      *eof = true;
      return Status::OK();
    }
    RecordBatchBytes(row_buffer_);
  }
  *out = row_buffer_.TakeRow(row_buffer_pos_++);
  *eof = false;
  return Status::OK();
}

void ExecNode::Close() {
  if (!timing_) {
    CloseImpl();
    return;
  }
  const Clock::time_point start = Clock::now();
  CloseImpl();
  stats_.open_seconds += SecondsSince(start);
}

void ExecNode::SetPhaseRecursive(QueryPhase phase) {
  if (phase_ == QueryPhase::kUnattributed) phase_ = phase;
  for (ExecNode* child : children()) child->SetPhaseRecursive(phase);
}

void ExecNode::EnableTimingRecursive() {
  timing_ = true;
  for (ExecNode* child : children()) child->EnableTimingRecursive();
}

namespace {
// Appends the remaining output of an opened node to `rows`: in bulk when
// the node hands over a materialized result (pulling finished rows through
// a batch would transpose and re-materialize every one), else batch by
// batch.
Status AppendAllRows(ExecNode* node, bool one_shot, std::vector<Row>* rows,
                     int64_t* bytes, bool* taken = nullptr) {
  const size_t before = rows->size();
  const bool took = node->TakeAllRows(rows, one_shot);
  if (taken != nullptr) *taken = took;
  if (took) {
    if (bytes != nullptr) {
      for (size_t i = before; i < rows->size(); ++i) {
        *bytes += RowBytes((*rows)[i]);
      }
    }
    return Status::OK();
  }
  RowBatch batch;
  bool eof = false;
  while (true) {
    NESTRA_RETURN_NOT_OK(node->NextBatch(&batch, &eof));
    if (eof) break;
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      rows->push_back(batch.TakeRow(i));
      // Counted while the row is still in cache: a walk after the drain
      // would re-read every row of a large stage result cold.
      if (bytes != nullptr) *bytes += RowBytes(rows->back());
    }
  }
  return Status::OK();
}
}  // namespace

Status DrainAllRows(ExecNode* node, std::vector<Row>* rows, int64_t* bytes) {
  return AppendAllRows(node, /*one_shot=*/true, rows, bytes);
}

Result<Table> CollectTable(ExecNode* node, int64_t* bytes,
                           bool* handed_over) {
  NESTRA_RETURN_NOT_OK(node->Open());
  Table out(node->output_schema());
  NESTRA_RETURN_NOT_OK(AppendAllRows(node, /*one_shot=*/false, &out.rows(),
                                     bytes, handed_over));
  node->Close();
  return out;
}

bool TableSourceNode::TakeAllRows(std::vector<Row>* out, bool one_shot) {
  if (!one_shot || pos_ != 0 || taken_) return false;
  taken_ = true;
  stats_.rows_out += table_.num_rows();
  if (out->empty()) {
    *out = std::move(table_.rows());
  } else {
    for (Row& row : table_.rows()) out->push_back(std::move(row));
  }
  table_.rows().clear();
  // The rows (and their byte charge) now belong to the consumer, which
  // accounts them through its own drain; releasing here, and reporting no
  // peak, keeps every byte charged and folded exactly once.
  ReleaseCharge();
  stats_.peak_mem_bytes = 0;
  return true;
}

Status TableSourceNode::OpenImpl() {
  // TakeAllRows only ever runs against an opened node, so an Open that
  // sees taken_ is a reopen — and the rows are gone.
  if (taken_) {
    return Status::Internal(
        "TableSource reopened after TakeAllRows moved its rows out; the "
        "replay would be silently empty");
  }
  pos_ = 0;
  if (charged_bytes_ == 0) {
    charged_bytes_ = TableBytes(table_);
    if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
      NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
    }
  }
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  return Status::OK();
}

void TableSourceNode::CloseImpl() { ReleaseCharge(); }

void TableSourceNode::ReleaseCharge() {
  if (charged_bytes_ == 0) return;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    mem->Release(charged_bytes_);
  }
  charged_bytes_ = 0;
  stats_.mem_bytes = 0;
}

Status TableSourceNode::NextImpl(Row* out, bool* eof) {
  if (pos_ >= table_.num_rows()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = table_.rows()[pos_++];
  return Status::OK();
}

Status TableSourceNode::NextBatchImpl(RowBatch* out, bool* eof) {
  const int64_t total = table_.num_rows();
  int64_t end = pos_ + RowBatch::kDefaultCapacity;
  if (end > total) end = total;
  const std::vector<Row>& rows = table_.rows();
  for (; pos_ < end; ++pos_) {
    out->AppendRow(rows[pos_]);
  }
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
