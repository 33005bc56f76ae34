#ifndef NESTRA_NRA_COST_H_
#define NESTRA_NRA_COST_H_

#include <vector>

#include "exec/join_hints.h"
#include "nra/options.h"
#include "nra/rewrites.h"
#include "plan/query_block.h"
#include "plan/stats/estimator.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief THE decision points for cost-driven planning and for the fused
/// pipeline's route and sort, in the same shared form as rewrites.h's
/// TakesTwoValuedAntijoin: NraExecutor's DAG builders,
/// PlanVerifier::Outline, and ExplainQuery all call these inline
/// predicates, so the executed plan, the verifier outline, and EXPLAIN can
/// never disagree about a plan decision. tools/lint_engine_invariants.py
/// (check 6) rejects direct calls to the underlying gates outside this
/// header, and requires these predicates to appear in all three consumers.
///
/// Everything here is inline and calls only code the verifier links
/// (nestra_plan, nestra_verify), so it keeps using this header without
/// linking nestra_nra.

/// §4.2.5 semijoin rewrite decision: the flag is an unconditional override;
/// otherwise cost_based applies the rewrite when the estimates say the
/// avoided join intermediate is large. `strict_safe` is computed by each
/// consumer from its own path walk (StrictSafe / PathStrictSafe), mirroring
/// how the two-valued ladder passes its own proofs in.
inline bool TakesSemijoinRewrite(const QueryBlock& child,
                                 const std::vector<const QueryBlock*>& path,
                                 bool strict_safe, const Catalog& catalog,
                                 const NraOptions& options) {
  if (!child.IsLeaf() || !child.LinkIsPositive() || !strict_safe) {
    return false;
  }
  if (options.rewrite_positive) return true;
  return options.cost_based && CostGatesSemijoinRewrite(child, path, catalog);
}

/// §4.2.4 nest push-down decision. Consumers AND this with their structural
/// equi-correlation check (AllEquiCorrelation / LooksEquiCorrelated /
/// EquiCorrelationSplit — schema-dependent, so it stays at the site).
inline bool TakesNestPushDown(const QueryBlock& child,
                              const std::vector<const QueryBlock*>& path,
                              const Catalog& catalog,
                              const NraOptions& options) {
  if (!child.IsLeaf()) return false;
  if (options.push_down_nest) return true;
  return options.cost_based && CostGatesNestPushDown(child, path, catalog);
}

/// Physical hints for the JoinWithChild connecting `child` to the
/// accumulated outer relation: build-side swap and perfect (dense-array)
/// keying. Inert defaults when cost_based is off, so every flag-driven
/// plan is byte-identical to the pre-stats executor.
inline JoinBuildHints JoinStrategyFor(const QueryBlock& child,
                                      const std::vector<const QueryBlock*>& path,
                                      const Catalog& catalog,
                                      const NraOptions& options) {
  if (!options.cost_based) return JoinBuildHints{};
  return ChoosesJoinStrategy(child, path, catalog);
}

/// Perfect-keying hints for an intra-block join in EvalBlockBase (build
/// side = the freshly scanned `ref`, single equality key `key_column`,
/// unqualified). The planner takes a bare bool because its signature
/// predates NraOptions plumbing.
inline JoinBuildHints BaseJoinStrategyFor(const Catalog& catalog,
                                          const QueryBlock::TableRef& ref,
                                          const std::string& key_column,
                                          bool cost_based) {
  if (!cost_based) return JoinBuildHints{};
  return ChoosesScanJoinStrategy(catalog, ref, key_column);
}

/// True when every non-root block of `path` links positively — the inline
/// mirror of rewrites.h's StrictSafe, restated here because StrictSafe is
/// compiled into nestra_nra and the verifier only links nestra_plan.
inline bool PathLinksAllPositive(const std::vector<const QueryBlock*>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->LinkIsPositive()) return false;
  }
  return true;
}

/// The fused-chain bypass for cost-gated rewrites, parallel to rewrites.h's
/// FusedChainBypassesTwoValued: a linear chain whose leaf would take a
/// cost-gated §4.2.5 / §4.2.4 rewrite must route through the recursive path
/// — the whole-chain fused pipeline would materialize exactly the join
/// intermediate the gate says to avoid. `chain` is root-first.
inline bool FusedChainBypassesForCost(
    const std::vector<const QueryBlock*>& chain, const Catalog& catalog,
    const NraOptions& options) {
  if (!options.cost_based || chain.size() < 2) return false;
  const QueryBlock& leaf = *chain.back();
  const std::vector<const QueryBlock*> leaf_path(chain.begin(),
                                                 chain.end() - 1);
  if (PathLinksAllPositive(leaf_path) && leaf.LinkIsPositive() &&
      leaf.IsLeaf() && CostGatesSemijoinRewrite(leaf, leaf_path, catalog)) {
    return true;
  }
  std::vector<CorrelationPair> pairs;
  if (leaf.IsLeaf() && EquiCorrelationPairs(leaf, &pairs) &&
      CostGatesNestPushDown(leaf, leaf_path, catalog)) {
    return true;
  }
  return false;
}

/// THE route decision for the §4.2.1 + §4.2.2 fused pipeline over a whole
/// linear chain: the chain, root first, when NraExecutor runs `root`
/// through ExecuteFusedLinearDag, else empty. Empty for a flat query, the
/// §4.2.3 bottom-up route, the push-down / semijoin flags, a tree query, a
/// chain with an uncorrelated block (the recursive path evaluates it as a
/// virtual Cartesian product instead of a real one), and a leaf that takes
/// the proven-2VL antijoin or a cost-gated rewrite.
inline std::vector<const QueryBlock*> FusedLinearChain(
    const QueryBlock& root, const Catalog& catalog,
    const NraOptions& options) {
  if (!options.fused || root.children.empty() || !root.IsLinear() ||
      options.push_down_nest || options.rewrite_positive ||
      (options.bottom_up_linear && root.IsLinearCorrelated())) {
    return {};
  }
  std::vector<const QueryBlock*> chain{&root};
  while (!chain.back()->children.empty()) {
    const QueryBlock* child = chain.back()->children[0].get();
    if (child->correlated_preds.empty()) return {};
    chain.push_back(child);
  }
  if (FusedChainBypassesTwoValued(chain, catalog, options) ||
      FusedChainBypassesForCost(chain, catalog, options)) {
    return {};
  }
  return chain;
}

/// True when every table of `block` declares a primary key, so the block's
/// base relation — those tables' filtered join, over all their columns —
/// holds no two rows equal on `block.attributes`.
inline bool BlockTablesKeyed(const QueryBlock& block, const Catalog& catalog) {
  for (const QueryBlock::TableRef& ref : block.tables) {
    const Result<const TableMetadata*> meta = catalog.GetMetadata(ref.table);
    if (!meta.ok() || (*meta)->primary_key.empty()) return false;
  }
  return true;
}

/// THE sort decision of the fused pipeline: true when the left-outer join
/// chain already delivers the rows of `chain` (a FusedLinearChain) grouped
/// — contiguous, though not sorted — by every level's nesting attributes,
/// so FusedNestSelect streams the join result with no sort beneath it.
///
/// Proof. Both join forms the chain uses are left-major: HashJoinNode emits
/// each probe row's matches together in probe order (the build swap
/// regroups its matches by left row to the same order), and
/// NestedLoopJoinNode walks the right side once per left row; an unmatched
/// left row yields exactly one padded row. The root scan yields each root
/// row once. If the relation entering the join of block k+1 holds one row
/// per distinct prefix of blocks 0..k, every row of a level-k group comes
/// from that one left row, so the group is contiguous; and when block k+1
/// is unique on its attributes, the output again holds one row per
/// distinct prefix of blocks 0..k+1. Induction over the outer blocks
/// 0..n-2 covers every level; the leaf's own rows need no key, since no
/// level nests by its attributes.
///
/// So the only condition is that every outer block be keyed. It is a
/// function of plan shape and declared keys alone — no estimates,
/// parameter values or thread count — so every thread count and both the
/// ad-hoc and prepared form of a statement get the same plan and the same
/// row order. Every other nest keeps its sort: tree queries
/// (ApplyNestSelect), §4.2.4 push-down, §4.2.3 bottom-up, the §4.2.5
/// rewrites and the non-fused (Original) plan.
inline bool FusedChainGroupedByJoin(const std::vector<const QueryBlock*>& chain,
                                    const Catalog& catalog) {
  if (chain.size() < 2) return false;
  for (size_t k = 0; k + 1 < chain.size(); ++k) {
    if (!BlockTablesKeyed(*chain[k], catalog)) return false;
  }
  return true;
}

}  // namespace nestra

#endif  // NESTRA_NRA_COST_H_
