#ifndef NESTRA_NRA_EXPLAIN_H_
#define NESTRA_NRA_EXPLAIN_H_

#include <string>

#include "nra/options.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief Renders the evaluation strategy the nested relational executor
/// will use for a bound query under `options`, without executing it:
/// the query-block tree, the paper's tree expression, the chosen pipeline
/// (whole-chain fused / bottom-up linear / recursive) and, per linking
/// predicate, the selection mode (strict vs pseudo) and any applied rewrite
/// (virtual Cartesian product, nest push-down, positive semijoin).
///
/// Also reports the plan the modelled native optimizer ("System A") would
/// pick, with its reason — handy for understanding the benchmark series.
std::string ExplainQuery(const QueryBlock& root, const Catalog& catalog,
                         const NraOptions& options = NraOptions::Optimized());

/// Parse + bind + explain.
Result<std::string> ExplainSql(const std::string& sql, const Catalog& catalog,
                               const NraOptions& options =
                                   NraOptions::Optimized());

/// \brief Only the static-analysis sections of EXPLAIN: the per-block
/// inferred properties (nullability / keys / cardinality, per-link
/// two-valued facts) and the plan-verification report with its rule and
/// diagnostic counts. Backs the shell's \verify meta-command.
std::string ExplainVerifyQuery(const QueryBlock& root, const Catalog& catalog,
                               const NraOptions& options =
                                   NraOptions::Optimized());

/// Parse + bind + ExplainVerifyQuery.
Result<std::string> ExplainVerifySql(const std::string& sql,
                                     const Catalog& catalog,
                                     const NraOptions& options =
                                         NraOptions::Optimized());

/// \brief EXPLAIN ANALYZE: renders the static plan, then executes the query
/// with profiling enabled (options.profile is forced on) and appends the
/// per-stage operator profile — rows in/out, Next() calls, wall time, hash
/// build/probe and sort volumes, simulated-I/O attribution, thread-pool
/// usage, and the paper-phase (unnest-join / nest / linking-selection /
/// post-processing) time and row split.
Result<std::string> ExplainAnalyzeQuery(
    const QueryBlock& root, const Catalog& catalog,
    const NraOptions& options = NraOptions::Optimized());

/// Parse + bind + execute + profile. Accepts compound statements
/// (UNION/INTERSECT/EXCEPT), profiling each branch.
Result<std::string> ExplainAnalyzeSql(
    const std::string& sql, const Catalog& catalog,
    const NraOptions& options = NraOptions::Optimized());

}  // namespace nestra

#endif  // NESTRA_NRA_EXPLAIN_H_
