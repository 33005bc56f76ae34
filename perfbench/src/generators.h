// Seeded statement generators for the three benchmark workloads. The
// program under test only ever sees the SQL text (and prepared-statement
// arguments) produced here.

#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/catalog.h"

namespace perfbench {

/// One distinct statement of a workload. `tmpl` names its query template;
/// latency_geomean_ms takes one median per template.
struct Statement {
  std::string tmpl;
  std::string sql;
};

/// The six §5.2 paper queries with the constants of
/// examples/tpch_subqueries (Q1's date window is the 0.3..0.7 quantile of
/// o_orderdate). Template names: Q1 Q2a Q2b Q3a Q3b Q3c.
nestra::Result<std::vector<Statement>> PaperQueries(
    const nestra::Catalog& catalog);

/// The same six templates with `$n` placeholders, for the session workload.
/// Q1 takes ($1 date_lo, $2 date_hi); the others take ($1 size_lo,
/// $2 size_hi, $3 availqty_max, $4 quantity).
inline constexpr int kNumPointTemplates = 6;
const char* PointTemplateName(int tmpl);

/// Fills template `tmpl` with `args` substituted for its placeholders
/// verbatim ("$1" or a SQL literal). With literal arguments the text is
/// byte-identical to tpch/queries.h's MakeQuery1/2/3.
std::string PointSql(int tmpl, const std::vector<std::string>& args);

/// The `$n` text of template `tmpl`, as prepared by every session.
std::string PointPreparedSql(int tmpl);

/// One narrow instance of a point template.
struct PointInstance {
  int tmpl = 0;
  std::vector<nestra::Value> args;      // ExecutePrepared arguments
  std::vector<std::string> literals;    // the same values as SQL literals
  std::string AdhocSql() const { return PointSql(tmpl, literals); }
};

/// `count` seeded narrow instances cycling over the six templates: a 30-day
/// o_orderdate window for Q1; a two-value p_size window, an availqty bound
/// in 4000..6000 and a quantity for Q2/Q3. Dates come from `catalog`'s
/// orders.
nestra::Result<std::vector<PointInstance>> PointInstances(
    const nestra::Catalog& catalog, uint64_t seed, int count);

/// Number of linking-operator kinds the NULL corpus covers: EXISTS,
/// NOT EXISTS, IN, NOT IN, theta ANY, theta ALL, theta against a
/// NULL-propagating aggregate (min/max/sum/avg), theta against COUNT.
inline constexpr int kNumLinkKinds = 8;
/// Query shapes: one-level, two-level linear, three-level linear, tree,
/// chain-under-tree.
inline constexpr int kNumShapes = 5;

/// A corpus of nested queries over the TPC-H tables (part, partsupp,
/// lineitem, orders). Query i has shape i % kNumShapes and root linking
/// operator (i / kNumShapes) % kNumLinkKinds, so any `count` that is a
/// multiple of 40 covers every (shape, root operator) pair equally. The
/// rest of the structure (optional conjuncts, inner link kinds, comparison
/// operators) is fixed; `seed` draws the constants. Every subquery is
/// correlated on an equality with an enclosing block, and lineitem blocks
/// under a tree carry a quantity window, which caps the fan-out of theta
/// correlations such as `<>`. Template names are "n<i>".
std::vector<Statement> NullsCorpus(uint64_t seed, int count);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
