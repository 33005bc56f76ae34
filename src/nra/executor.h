#ifndef NESTRA_NRA_EXECUTOR_H_
#define NESTRA_NRA_EXECUTOR_H_

#include <deque>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/join_hints.h"
#include "nested/linking_selection.h"
#include "nra/options.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

class QueryProfile;
class StageDag;

/// \brief The nested relational approach (Algorithm 1) with the paper's
/// optimizations, selected through NraOptions:
///
///  * top-down: reduce each block to T_i = σ_i(R_i), then left-outer hash
///    join the blocks along the (spanning) query tree on their correlated
///    predicates (a virtual Cartesian product when a subquery is not
///    correlated);
///  * bottom-up: nest by the retained attribute prefix keeping the child's
///    (linked attribute, primary key) and apply the linking selection —
///    strict when dropping is safe (root level, or every enclosing link
///    positive), pseudo otherwise;
///  * the result is the projection of the root's select list, with rows
///    whose root key was pseudo-padded filtered out.
///
/// With options.fused (the paper's "optimized" variant) linear queries run
/// as ONE streaming pass evaluating every level over the wide join result —
/// with no sort when every outer block is keyed (FusedChainGroupedByJoin,
/// nra/cost.h: the join chain then delivers each level's groups
/// contiguously), else after ONE sort; tree queries fuse each nest with its
/// linking selection level-by-level, each behind its own sort.
class NraExecutor {
 public:
  explicit NraExecutor(const Catalog& catalog,
                       NraOptions options = NraOptions::Optimized())
      : catalog_(catalog),
        options_(options),
        num_threads_(ResolveNumThreads(options.num_threads)) {}

  /// Executes a bound query. `stats`, when non-null, receives the
  /// join-phase/nest-phase timing split and the intermediate result size.
  /// `profile`, when non-null AND `options.profile` is set, is cleared and
  /// filled with the per-stage operator-level profile (EXPLAIN ANALYZE);
  /// otherwise it is left untouched and profiling adds no work.
  Result<Table> Execute(const QueryBlock& root, NraStats* stats = nullptr,
                        QueryProfile* profile = nullptr);

  /// Parse + bind + execute.
  Result<Table> ExecuteSql(const std::string& sql, NraStats* stats = nullptr,
                           QueryProfile* profile = nullptr);

  /// Like ExecuteSql but also accepts compound statements
  /// (`UNION [ALL] | INTERSECT | EXCEPT`); branches execute independently
  /// and combine left-associatively with SQL set semantics. Stats aggregate
  /// across branches; profile stages are prefixed "branch<i>: " when the
  /// statement has more than one branch.
  Result<Table> ExecuteStatementSql(const std::string& sql,
                                    NraStats* stats = nullptr,
                                    QueryProfile* profile = nullptr);

  const NraOptions& options() const { return options_; }

 private:
  /// The query's stage sequence decomposed into a StageDag (DESIGN.md §11)
  /// whose independent tasks — base-table evaluations of different blocks,
  /// most importantly — run concurrently on the shared pool. At one thread
  /// the DAG runs its tasks inline in creation order: the serial schedule.
  /// Each task is internally deterministic and the merged profile follows
  /// creation order, so results, stage lists and NraStats' deterministic
  /// fields are identical at every thread count.
  ///
  /// Linear correlated chain with options_.fused: one wide outer join, then
  /// one streaming nest+select pass over every level, behind a sort only
  /// when FusedChainGroupedByJoin does not hold.
  Result<Table> ExecuteFusedLinearDag(
      const std::vector<const QueryBlock*>& chain, NraStats* stats,
      QueryProfile* profile);
  /// §4.2.3: a linear correlated chain evaluated leaf to root.
  Result<Table> ExecuteBottomUpLinearDag(
      const std::vector<const QueryBlock*>& chain, NraStats* stats,
      QueryProfile* profile);
  /// Algorithm 1 over any block tree (the original / tree-query path).
  Result<Table> ExecutePipelinedRecursive(const QueryBlock& root,
                                          NraStats* stats,
                                          QueryProfile* profile);

  /// Recursive DAG builder behind ExecutePipelinedRecursive: appends the
  /// tasks for `node`'s children to `dag` and returns the id of the last
  /// transform task. `retained` lists the qualified attributes of blocks
  /// root..node; `path` is the block chain root..node for strict/pseudo
  /// decisions. `prev` is the task producing the incoming `rel`; `bases`
  /// owns the per-block base tables (deque: stable addresses across
  /// emplace_back).
  int BuildComputeTaskDag(StageDag* dag, const QueryBlock& node,
                          std::vector<const QueryBlock*>* path,
                          const std::vector<std::string>& retained, int prev,
                          Table* rel, std::deque<Table>* bases);

  /// Adds the "base[bN]" task evaluating `block`'s T_i = σ_i(R_i) into
  /// `*out`; returns its id.
  int AddBaseTask(StageDag* dag, const QueryBlock& block, Table* out);

  /// Algorithm 1's way down for one child: magic-restrict `base` against
  /// `*rel` (options_.magic_restriction), then left-outer join it into
  /// `*rel` on the child's correlated predicates.
  Status OuterJoinChild(const QueryBlock& child, const JoinBuildHints& hints,
                        Table base, Table* rel, NraStats* stats,
                        QueryProfile* profile);

  /// One "link-select[bN]" stage: HashLinkSelect of `inner` against `outer`
  /// on the given key columns (none: the virtual Cartesian product) into
  /// `*out`.
  Status LinkSelectStage(const QueryBlock& child, Table outer,
                         const Table& inner,
                         const std::vector<std::string>& okeys,
                         const std::vector<std::string>& ikeys,
                         SelectionMode mode,
                         const std::vector<std::string>& pad_attrs,
                         Table* out, NraStats* stats, QueryProfile* profile);

  /// The materialized way up: nest `rel` by `retained` keeping the child's
  /// (linked attribute, key), then apply the linking selection — a
  /// "nest[bN]" and a "select[bN]" stage.
  Result<Table> NestThenSelect(const QueryBlock& child,
                               const std::vector<std::string>& retained,
                               SelectionMode mode,
                               const std::vector<std::string>& pad_attrs,
                               const Table& rel, QueryProfile* profile);

  /// The "way up" of Algorithm 1 for one child link: nest `*rel` by
  /// `retained` and apply the linking selection (one fused pass when
  /// options_.fused, else NestThenSelect), padding `node`'s attributes in
  /// pseudo mode.
  Status ApplyNestSelect(const QueryBlock& node, const QueryBlock& child,
                         const std::vector<std::string>& retained,
                         SelectionMode mode, Table* rel,
                         QueryProfile* profile);

  /// Final projection (+ DISTINCT, + root-key NOT NULL guard).
  Result<Table> FinishRoot(const QueryBlock& root, Table rel,
                           QueryProfile* profile);

  const Catalog& catalog_;
  NraOptions options_;
  // options_.num_threads resolved once (0 = auto -> hardware concurrency)
  // and passed to every parallel-capable phase.
  int num_threads_ = 1;
};

}  // namespace nestra

#endif  // NESTRA_NRA_EXECUTOR_H_
