#include "nra/planner.h"

#include <algorithm>
#include <cmath>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "expr/evaluator.h"
#include "nra/cost.h"
#include "nra/profile.h"
#include "storage/io_sim.h"
#include "storage/table_stats.h"
#include "telemetry/engine_metrics.h"

namespace nestra {

namespace {

// "base[o l]" — aliases (or table names) of the block, thread-count
// independent so profile stage lists compare across runs.
std::string BlockLabel(const QueryBlock& block) {
  std::string label = "base[";
  for (size_t i = 0; i < block.tables.size(); ++i) {
    if (i > 0) label += ' ';
    const QueryBlock::TableRef& ref = block.tables[i];
    label += ref.alias.empty() ? ref.table : ref.alias;
  }
  label += ']';
  return label;
}

// One local-predicate conjunct usable for zone-map pruning: a column
// compared to a numeric literal (normalized to `col op lit`), or an
// IS NOT NULL guard. Pruning only ever uses NECESSARY conditions — a
// granule is skipped when the term proves no row in it can pass — so
// conjuncts this misses just cost nothing.
struct ZoneTerm {
  int col = 0;
  bool not_null_only = false;
  CmpOp op = CmpOp::kEq;
  double lit = 0.0;
};

// Doubles represent integers exactly only up to 2^53; literals at or beyond
// 2^52 stay out of pruning so a rounded bound can never misjudge a granule.
constexpr double kZoneLiteralLimit = 4503599627370496.0;  // 2^52

void CollectZoneTerms(const std::vector<ExprPtr>& conjuncts,
                      const Schema& schema, std::vector<ZoneTerm>* out) {
  for (const ExprPtr& e : conjuncts) {
    if (const auto* is_null = dynamic_cast<const IsNullExpr*>(e.get())) {
      // IS NULL cannot prune (zones don't count NULLs per granule); IS NOT
      // NULL prunes all-NULL granules.
      if (!is_null->negated()) continue;
      const auto* col = dynamic_cast<const ColumnRef*>(&is_null->child());
      if (col == nullptr) continue;
      Result<int> idx = schema.Resolve(col->name());
      if (!idx.ok()) continue;
      ZoneTerm t;
      t.col = *idx;
      t.not_null_only = true;
      out->push_back(t);
      continue;
    }
    const auto* cmp = dynamic_cast<const Comparison*>(e.get());
    if (cmp == nullptr) continue;
    const auto* l_col = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r_col = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    const auto* l_lit = dynamic_cast<const Literal*>(&cmp->lhs());
    const auto* r_lit = dynamic_cast<const Literal*>(&cmp->rhs());
    const ColumnRef* col = l_col != nullptr ? l_col : r_col;
    const Literal* lit = l_col != nullptr ? r_lit : l_lit;
    if (col == nullptr || lit == nullptr) continue;
    const auto num = lit->value().AsDouble();
    if (!num.has_value() || std::abs(*num) >= kZoneLiteralLimit) continue;
    Result<int> idx = schema.Resolve(col->name());
    if (!idx.ok()) continue;
    ZoneTerm t;
    t.col = *idx;
    t.op = l_col != nullptr ? cmp->op() : FlipCmpOp(cmp->op());
    t.lit = *num;
    out->push_back(t);
  }
}

// True when the zone entry proves no row of the granule satisfies `t`.
bool GranuleRejected(const ZoneEntry& z, const ZoneTerm& t) {
  // NULL operands fail comparisons and IS NOT NULL alike.
  if (z.all_null) return true;
  if (t.not_null_only) return false;
  // No numeric range (e.g. a string column): nothing provable.
  if (!z.has_range) return false;
  switch (t.op) {
    case CmpOp::kEq:
      return t.lit < z.min || t.lit > z.max;
    case CmpOp::kNe:
      return false;
    case CmpOp::kLt:
      return z.min >= t.lit;
    case CmpOp::kLe:
      return z.min > t.lit;
    case CmpOp::kGt:
      return z.max <= t.lit;
    case CmpOp::kGe:
      return z.max < t.lit;
  }
  return false;
}

// Zone-map pruning pays off on big tables; below this many granules the
// whole scan fits a few pages anyway and plan stability matters more (the
// gate keeps every tier-1 test workload on unpruned scans, same reasoning
// as kCostMinJoinRows).
constexpr int64_t kMinPruneGranules = 8;

// A half-open row range [begin, end) of a base table.
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
};

// The row ranges a single-table scan reads, in table order.
// `total_granules` is 0 unless zone pruning fired, in which case the ranges
// are the kept granules (adjacent ones coalesced).
struct ScanRanges {
  std::vector<RowRange> ranges;
  int64_t kept_granules = 0;
  int64_t total_granules = 0;
};

// Zone-map pruning: when per-granule min/max from load-time stats prove
// some granules can't satisfy `conjuncts`, only the kept ones are scanned.
// Otherwise the range is the whole table.
ScanRanges PlanScanRanges(const Catalog& catalog, const std::string& name,
                          const Table& table, const Schema& schema,
                          const std::vector<ExprPtr>& conjuncts,
                          bool cost_based) {
  ScanRanges scan;
  const int64_t n = table.num_rows();
  scan.ranges.push_back({0, n});
  if (!cost_based || conjuncts.empty()) return scan;
  const Result<const TableStats*> stats = catalog.GetStats(name);
  if (!stats.ok() || (*stats)->zones.num_granules < kMinPruneGranules) {
    return scan;
  }
  std::vector<ZoneTerm> terms;
  CollectZoneTerms(conjuncts, schema, &terms);
  if (terms.empty()) return scan;
  const TableZoneMap& zones = (*stats)->zones;
  std::vector<RowRange> kept;
  int64_t kept_granules = 0;
  for (int64_t gi = 0; gi < zones.num_granules; ++gi) {
    bool keep = true;
    for (const ZoneTerm& t : terms) {
      if (GranuleRejected(zones.At(gi, t.col), t)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    ++kept_granules;
    const int64_t begin = gi * kZoneGranuleRows;
    const int64_t end = std::min(n, begin + kZoneGranuleRows);
    if (!kept.empty() && kept.back().end == begin) {
      kept.back().end = end;
    } else {
      kept.push_back({begin, end});
    }
  }
  if (kept_granules == zones.num_granules) return scan;
  scan.ranges = std::move(kept);
  scan.kept_granules = kept_granules;
  scan.total_granules = zones.num_granules;
  return scan;
}

// The single-table scan+filter, one implementation for every engine
// combination. The ranges split into MorselCount morsels (the whole scan is
// one morsel at one thread); each morsel walks its rows in RowBatch-sized
// batches, charges IoSim with one SeqRange per batch — exactly what a
// per-row SeqRow loop charges — and keeps the rows passing `vpred` (compiled
// kernels over a batch holding only the predicate's columns) or, when that
// is null, `bound` evaluated per row. Only survivors are copied out of the
// table, into a per-morsel slot; slots concatenate in morsel order, so the
// output equals a serial ScanNode -> FilterNode pass at any thread count.
Result<Table> MorselScan(const Table& table, const Schema& schema,
                         const BoundPredicate& bound,
                         const VectorizedPredicate* vpred,
                         const std::vector<RowRange>& ranges, int num_threads,
                         ProfiledOperator* op_out) {
  // offsets[r] = position of range r's first row in the concatenated scan.
  std::vector<int64_t> offsets(ranges.size() + 1, 0);
  for (size_t r = 0; r < ranges.size(); ++r) {
    offsets[r + 1] = offsets[r] + (ranges[r].end - ranges[r].begin);
  }
  const int64_t total = offsets.back();
  struct MorselOut {
    std::vector<Row> rows;
    IoSim::RangeCounts io;
    int64_t batches = 0;
  };
  std::vector<MorselOut> slots(
      static_cast<size_t>(MorselCount(total, num_threads)));
  const std::vector<Row>& rows = table.rows();
  const std::vector<int> cols =
      vpred != nullptr ? vpred->used_columns() : std::vector<int>();
  ParallelForMorsels(total, num_threads, [&](int64_t m, int64_t lo,
                                             int64_t hi) {
    MorselOut& slot = slots[static_cast<size_t>(m)];
    slot.rows.reserve(static_cast<size_t>(hi - lo));
    IoSim* sim = IoSim::Get();
    RowBatch batch;
    if (vpred != nullptr) batch.Reset(schema);
    std::vector<int32_t> sel;
    size_t r = static_cast<size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), lo) -
        offsets.begin() - 1);
    for (; r < ranges.size() && offsets[r] < hi; ++r) {
      const int64_t first =
          ranges[r].begin + std::max<int64_t>(0, lo - offsets[r]);
      const int64_t last =
          ranges[r].begin + std::min(offsets[r + 1], hi) - offsets[r];
      for (int64_t begin = first; begin < last;
           begin += RowBatch::kDefaultCapacity) {
        const int64_t end =
            std::min<int64_t>(last, begin + RowBatch::kDefaultCapacity);
        ++slot.batches;
        if (sim != nullptr) {
          const IoSim::RangeCounts c = sim->SeqRange(&table, begin, end);
          slot.io.hits += c.hits;
          slot.io.seq_misses += c.seq_misses;
          slot.io.random_misses += c.random_misses;
        }
        if (vpred == nullptr) {
          for (int64_t i = begin; i < end; ++i) {
            const Row& row = rows[static_cast<size_t>(i)];
            if (bound.Matches(row)) slot.rows.push_back(row);
          }
          continue;
        }
        batch.Clear();
        for (int64_t i = begin; i < end; ++i) {
          const Row& row = rows[static_cast<size_t>(i)];
          for (const int c : cols) batch.column(c).Append(row[c]);
        }
        batch.set_num_rows(end - begin);
        vpred->Select(batch, &sel);
        for (const int32_t s : sel) {
          slot.rows.push_back(rows[static_cast<size_t>(begin + s)]);
        }
      }
    }
  });
  Table out{schema};
  if (slots.size() == 1) {
    out = Table(schema, std::move(slots[0].rows));
  } else {
    size_t survivors = 0;
    for (const MorselOut& slot : slots) survivors += slot.rows.size();
    out.Reserve(survivors);
    for (MorselOut& slot : slots) {
      for (Row& row : slot.rows) out.AppendUnchecked(std::move(row));
    }
  }
  if (op_out != nullptr) {
    op_out->name = "MorselScan";
    op_out->phase = QueryPhase::kUnnestJoin;
    op_out->rows_in = total;
    op_out->stats.rows_out = out.num_rows();
    for (const MorselOut& slot : slots) {
      op_out->stats.batches_out += slot.batches;
      op_out->stats.io_hits += slot.io.hits;
      op_out->stats.io_seq_misses += slot.io.seq_misses;
      op_out->stats.io_random_misses += slot.io.random_misses;
    }
  }
  return out;
}

}  // namespace

Result<Table> ParallelFilterTable(Table in, const Expr* pred,
                                  int num_threads) {
  NESTRA_ASSIGN_OR_RETURN(BoundPredicate bound,
                          BoundPredicate::Make(pred, in.schema()));
  Table out{in.schema()};
  const int64_t n = static_cast<int64_t>(in.rows().size());
  // Morsels keep row order: slot m holds the survivors of rows
  // [m*chunk, (m+1)*chunk), concatenated in morsel order below.
  std::vector<std::vector<Row>> slots(
      static_cast<size_t>(MorselCount(n, num_threads)));
  ParallelForMorsels(n, num_threads, [&](int64_t morsel, int64_t begin,
                                         int64_t end) {
    std::vector<Row>& slot = slots[static_cast<size_t>(morsel)];
    for (int64_t i = begin; i < end; ++i) {
      Row& r = in.rows()[static_cast<size_t>(i)];
      if (bound.Matches(r)) slot.push_back(std::move(r));
    }
  });
  for (std::vector<Row>& slot : slots) {
    for (Row& r : slot) out.AppendUnchecked(std::move(r));
  }
  return out;
}

Result<Table> EvalBlockBase(const QueryBlock& block, const Catalog& catalog,
                            int num_threads, QueryProfile* profile,
                            bool two_valued, bool cost_based) {
  // Split local conjuncts once; they are attached to the first join where
  // both sides are available, remaining ones become a final filter.
  std::vector<ExprPtr> conjuncts;
  if (block.local_pred != nullptr) {
    conjuncts = SplitConjunction(block.local_pred->Clone());
  }

  if (block.tables.size() == 1) {
    // Single-table block: one morsel scan at every thread count, so rows
    // and IoSim charges are identical across threads by construction.
    const QueryBlock::TableRef& ref = block.tables[0];
    NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(ref.table));
    const Schema schema = ref.alias.empty()
                              ? table->schema()
                              : table->schema().Qualify(ref.alias);
    const ScanRanges scan = PlanScanRanges(catalog, ref.table, *table, schema,
                                           conjuncts, cost_based);
    const ExprPtr pred =
        conjuncts.empty() ? nullptr : MakeAnd(std::move(conjuncts));
    VectorizedPredicate vpred;
    bool compiled = false;
    if (pred != nullptr) {
      if (two_valued) {
        // Proven-2VL fast path: columns the catalog proves non-NULL
        // (declared NOT NULL or scanned NULL-free at registration) compile
        // to kernels with no per-value NULL loads. Tables are immutable
        // once registered, so the proof cannot be invalidated under us.
        std::vector<bool> non_null(static_cast<size_t>(schema.num_fields()),
                                   false);
        for (int i = 0; i < schema.num_fields(); ++i) {
          non_null[static_cast<size_t>(i)] = catalog.ProvenNotNull(
              ref.table, table->schema().fields()[i].name);
        }
        compiled =
            VectorizedPredicate::Compile(pred.get(), schema, non_null, &vpred);
      } else {
        compiled = VectorizedPredicate::Compile(pred.get(), schema, &vpred);
      }
    }
    BoundPredicate bound;
    if (!compiled) {
      NESTRA_ASSIGN_OR_RETURN(bound, BoundPredicate::Make(pred.get(), schema));
    }
    StageTimer timer(profile, QueryPhase::kUnnestJoin, BlockLabel(block));
    ProfiledOperator op;
    NESTRA_ASSIGN_OR_RETURN(
        Table out, MorselScan(*table, schema, bound,
                              compiled ? &vpred : nullptr, scan.ranges,
                              num_threads, timer.active() ? &op : nullptr));
    if (scan.total_granules > 0) {
      if (telemetry::MetricsEnabled()) {
        const telemetry::EngineMetrics& m = telemetry::Metrics();
        m.zone_granules_scanned_total->Add(
            static_cast<double>(scan.kept_granules));
        m.zone_granules_pruned_total->Add(
            static_cast<double>(scan.total_granules - scan.kept_granules));
      }
      op.detail = "granules=" + std::to_string(scan.kept_granules) + "/" +
                  std::to_string(scan.total_granules);
    }
    NESTRA_RETURN_NOT_OK(FoldStageMem(&timer, TableBytes(out)));
    timer.Finish(out.num_rows(), std::move(op));
    return out;
  }

  ExecNodePtr node;
  for (const QueryBlock::TableRef& ref : block.tables) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(ref.table));
    auto scan = std::make_unique<ScanNode>(table, ref.alias);
    if (node == nullptr) {
      node = std::move(scan);
    } else {
      // Pull in every conjunct that binds against (node ++ scan).
      const Schema combined =
          Schema::Concat(node->output_schema(), scan->output_schema());
      std::vector<ExprPtr> usable;
      std::vector<ExprPtr> rest;
      for (ExprPtr& c : conjuncts) {
        if (ReferencesOnly(*c, combined)) {
          usable.push_back(std::move(c));
        } else {
          rest.push_back(std::move(c));
        }
      }
      conjuncts = std::move(rest);
      JoinCondition cond = DecomposeJoinCondition(
          std::move(usable), node->output_schema(), scan->output_schema());
      JoinBuildHints hints;
      if (cost_based && cond.equi.size() == 1) {
        // The build side is the freshly scanned `ref`; its single key column
        // arrives qualified by the alias, which the stats lookup strips.
        std::string key = cond.equi[0].right;
        if (!ref.alias.empty() &&
            key.rfind(ref.alias + ".", 0) == 0) {
          key = key.substr(ref.alias.size() + 1);
        }
        hints = BaseJoinStrategyFor(catalog, ref, key, cost_based);
      }
      node = std::make_unique<HashJoinNode>(
          std::move(node), std::move(scan), JoinType::kInner,
          std::move(cond.equi), std::move(cond.residual), num_threads,
          hints);
    }
  }
  if (conjuncts.empty()) {
    return CollectProfiled(node.get(), QueryPhase::kUnnestJoin,
                           BlockLabel(block), profile);
  }
  // Leftover conjuncts: the join tree drains serially (NextBatch is a
  // serial protocol; its hash joins parallelize internally), then the
  // materialized rows filter in morsels.
  StageTimer timer(profile, QueryPhase::kUnnestJoin, BlockLabel(block));
  if (timer.active()) {
    node->SetPhaseRecursive(QueryPhase::kUnnestJoin);
    node->EnableTimingRecursive();
  }
  int64_t scanned_bytes = 0;
  // Stage peak: the join tree's footprint with its drained intermediate,
  // which is still live while the filter builds its output.
  int64_t tree_peak = 0;
  NESTRA_ASSIGN_OR_RETURN(
      Table scanned, CollectStage(node.get(), &scanned_bytes, &tree_peak));
  FlushOperatorMetrics(*node);
  ProfiledOperator tree;
  if (timer.active()) tree = ProfiledOperator::Snapshot(*node);
  const ExprPtr pred = MakeAnd(std::move(conjuncts));
  NESTRA_ASSIGN_OR_RETURN(
      Table out,
      ParallelFilterTable(std::move(scanned), pred.get(), num_threads));
  const int64_t out_bytes = TableBytes(out);
  NESTRA_RETURN_NOT_OK(FoldStageMem(&timer, out_bytes, tree_peak + out_bytes));
  if (timer.active()) {
    ProfiledOperator wrapper;
    wrapper.name = "ParallelFilter";
    wrapper.phase = QueryPhase::kUnnestJoin;
    wrapper.rows_in = tree.stats.rows_out;
    wrapper.stats.rows_out = out.num_rows();
    wrapper.children.push_back(std::move(tree));
    timer.Finish(out.num_rows(), std::move(wrapper));
  } else {
    timer.Finish(out.num_rows());
  }
  return out;
}

ExprPtr CloneCorrelatedPreds(const QueryBlock& child) {
  if (child.correlated_preds.empty()) return nullptr;
  std::vector<ExprPtr> copies;
  copies.reserve(child.correlated_preds.size());
  for (const ExprPtr& p : child.correlated_preds) {
    copies.push_back(p->Clone());
  }
  return MakeAnd(std::move(copies));
}

Result<Table> JoinWithChild(Table rel, Table child_base,
                            const QueryBlock& child, JoinType join_type,
                            ExprPtr extra_condition, int num_threads,
                            QueryProfile* profile,
                            const JoinBuildHints& hints) {
  const std::string label = "join[b" + std::to_string(child.id) + "]";
  auto left = std::make_unique<TableSourceNode>(std::move(rel));
  auto right = std::make_unique<TableSourceNode>(std::move(child_base));

  std::vector<ExprPtr> conjuncts;
  if (ExprPtr corr = CloneCorrelatedPreds(child); corr != nullptr) {
    for (ExprPtr& c : SplitConjunction(std::move(corr))) {
      conjuncts.push_back(std::move(c));
    }
  }
  if (extra_condition != nullptr) {
    for (ExprPtr& c : SplitConjunction(std::move(extra_condition))) {
      conjuncts.push_back(std::move(c));
    }
  }

  if (conjuncts.empty()) {
    // Non-correlated subquery: virtual Cartesian product. A left outer
    // cross join keeps padding behaviour for empty subqueries.
    auto join = std::make_unique<NestedLoopJoinNode>(
        std::move(left), std::move(right), join_type, nullptr);
    return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label,
                           profile);
  }

  JoinCondition cond = DecomposeJoinCondition(
      std::move(conjuncts), left->output_schema(), right->output_schema());
  if (cond.equi.empty()) {
    // Pure theta correlation (e.g. only inequality predicates): the hash
    // join would degenerate to one bucket anyway; use the nested loop form
    // for clarity.
    auto join = std::make_unique<NestedLoopJoinNode>(
        std::move(left), std::move(right), join_type,
        std::move(cond.residual));
    return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label,
                           profile);
  }
  auto join = std::make_unique<HashJoinNode>(
      std::move(left), std::move(right), join_type, std::move(cond.equi),
      std::move(cond.residual), num_threads, hints);
  return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label, profile);
}

Result<std::vector<const QueryBlock*>> LinearChain(const QueryBlock& root) {
  std::vector<const QueryBlock*> chain;
  const QueryBlock* node = &root;
  while (true) {
    chain.push_back(node);
    if (node->children.empty()) break;
    if (node->children.size() > 1) {
      return Status::InvalidArgument(
          "query is a tree query (block " + std::to_string(node->id) +
          " has " + std::to_string(node->children.size()) + " children)");
    }
    node = node->children[0].get();
  }
  return chain;
}

namespace {

AggFunc ToAggFunc(LinkAgg agg) {
  switch (agg) {
    case LinkAgg::kCount:
      return AggFunc::kCount;
    case LinkAgg::kCountStar:
      return AggFunc::kCountStar;
    case LinkAgg::kSum:
      return AggFunc::kSum;
    case LinkAgg::kMin:
      return AggFunc::kMin;
    case LinkAgg::kMax:
      return AggFunc::kMax;
    case LinkAgg::kAvg:
      return AggFunc::kAvg;
  }
  return AggFunc::kCount;
}

}  // namespace

ExecNodePtr RootGroupPlan(const QueryBlock& root, ExecNodePtr input) {
  if (!root.IsGrouped()) return input;
  std::vector<AggSpec> aggs;
  aggs.reserve(root.aggregates.size());
  for (const QueryBlock::RootAgg& a : root.aggregates) {
    aggs.push_back({ToAggFunc(a.func), a.column, a.output_name});
  }
  ExecNodePtr node = std::make_unique<AggregateNode>(
      std::move(input), root.group_by, std::move(aggs));
  if (root.having != nullptr) {
    node = std::make_unique<FilterNode>(std::move(node), root.having->Clone());
  }
  return node;
}

ExecNodePtr RootOrderPlan(const QueryBlock& root, ExecNodePtr input,
                          int num_threads) {
  ExecNodePtr node = std::move(input);
  if (!root.order_by.empty()) {
    std::vector<SortKey> keys;
    keys.reserve(root.order_by.size());
    for (const QueryBlock::OrderItem& item : root.order_by) {
      keys.push_back({item.column, item.ascending});
    }
    node = std::make_unique<SortNode>(std::move(node), std::move(keys),
                                      num_threads);
  }
  node = std::make_unique<ProjectNode>(std::move(node), root.select_list);
  if (root.distinct) {
    // DistinctNode emits first occurrences in input order, preserving the
    // sort above.
    node = std::make_unique<DistinctNode>(std::move(node));
  }
  if (root.limit >= 0) {
    node = std::make_unique<LimitNode>(std::move(node), root.limit);
  }
  return node;
}

Result<Table> FinalizeRootOutput(const QueryBlock& root, Table rel,
                                 const std::string& key_filter_attr,
                                 int num_threads, QueryProfile* profile) {
  // One "finish" stage: the morsel key-filter pre-pass (when there is a key
  // to guard) is folded into the stage's wall time, and the stage's rows_out
  // is the final output.
  StageTimer timer(profile, QueryPhase::kPostProcessing, "finish");
  if (!key_filter_attr.empty()) {
    const ExprPtr pred = IsNotNull(Col(key_filter_attr));
    NESTRA_ASSIGN_OR_RETURN(
        rel, ParallelFilterTable(std::move(rel), pred.get(), num_threads));
  }
  ExecNodePtr node = RootOrderPlan(
      root,
      RootGroupPlan(root, std::make_unique<TableSourceNode>(std::move(rel))),
      num_threads);
  if (timer.active()) {
    node->SetPhaseRecursive(QueryPhase::kPostProcessing);
    node->EnableTimingRecursive();
  }
  int64_t out_bytes = 0;
  int64_t stage_peak = 0;
  NESTRA_ASSIGN_OR_RETURN(Table out,
                          CollectStage(node.get(), &out_bytes, &stage_peak));
  FlushOperatorMetrics(*node);
  NESTRA_RETURN_NOT_OK(FoldStageMem(&timer, out_bytes, stage_peak));
  if (timer.active()) {
    timer.Finish(out.num_rows(), ProfiledOperator::Snapshot(*node));
  } else {
    timer.Finish(out.num_rows());
  }
  return out;
}

bool AllEquiCorrelation(const QueryBlock& child, const Schema& outer_schema,
                        const Schema& child_schema,
                        std::vector<std::string>* outer_cols,
                        std::vector<std::string>* child_cols) {
  outer_cols->clear();
  child_cols->clear();
  if (child.correlated_preds.empty()) return false;
  for (const ExprPtr& p : child.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) return false;
    const bool l_outer = outer_schema.Resolve(l->name()).ok();
    const bool l_child = child_schema.Resolve(l->name()).ok();
    const bool r_outer = outer_schema.Resolve(r->name()).ok();
    const bool r_child = child_schema.Resolve(r->name()).ok();
    if (l_outer && !l_child && r_child && !r_outer) {
      outer_cols->push_back(l->name());
      child_cols->push_back(r->name());
    } else if (r_outer && !r_child && l_child && !l_outer) {
      outer_cols->push_back(r->name());
      child_cols->push_back(l->name());
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace nestra
