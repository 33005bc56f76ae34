#ifndef NESTRA_NRA_PIPELINE_H_
#define NESTRA_NRA_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "nra/options.h"
#include "nra/profile.h"

namespace nestra {

/// \brief Event-scheduled stage DAG: the push-based execution model of
/// DESIGN.md §11.
///
/// NraExecutor builds every query plan as tasks — one per
/// pipeline ending in a breaker (a base-table evaluation, a hash-join
/// build+probe, a nest, the final sort+finish) — wired with explicit
/// dependencies, then calls Run(). Independent tasks execute concurrently
/// on the shared ThreadPool; a task starts the moment its last dependency
/// finishes (event-driven, no phase barriers).
///
/// Determinism contract: each task writes only state its dependents read
/// after the dependency edge (the scheduler's mutex orders the hand-off),
/// and every task is internally deterministic (morsel-index-ordered
/// concatenation, per the engine-wide rule). The DAG therefore changes
/// *when* stages run, never what they produce: results, NraStats, and the
/// profile's stage list are bit-identical at every thread count.
///
/// To keep the profile deterministic under concurrency, every task records
/// stages into a task-local QueryProfile; Run() merges them in task
/// *creation* order, which the executor's builders arrange to be the serial
/// stage order. NraStats merge the same way: the timing phases accumulate
/// (+=), intermediate_rows / output_rows max-merge (each task tracks a
/// running maximum of a row-monotone sequence).
class StageDag {
 public:
  /// A task body runs one pipeline. `stats` is never null (task-local,
  /// merged later); `profile` is the task-local profile, or null when the
  /// query is not being profiled — the same contract as every stage helper
  /// (StageTimer, CollectProfiled).
  using TaskBody = std::function<Status(NraStats* stats, QueryProfile*)>;

  /// Adds a task and returns its id (ids are dense, in creation order).
  /// `deps` must name earlier ids only — the DAG is built topologically
  /// sorted by construction.
  int AddTask(std::string label, std::vector<int> deps, TaskBody body);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }

  /// Executes the DAG and blocks until every task finished or was skipped.
  ///
  /// With num_threads <= 1 tasks run inline in creation order, stopping at
  /// the first error — the serial stage-at-a-time schedule. Otherwise the
  /// calling thread participates: it seeds the ready set, runs ready tasks
  /// itself, and while starved helps drain unrelated pool work
  /// (ThreadPool::TryRunOne) so nested parallel loops inside task bodies
  /// can never deadlock the pool. A failed task skips its transitive
  /// dependents; the first error in creation order is returned.
  ///
  /// On success, task-local stats and profiles are merged in creation
  /// order into `stats` / `profile` (either may be null).
  Status Run(int num_threads, NraStats* stats, QueryProfile* profile);

 private:
  struct Task {
    std::string label;
    std::vector<int> deps;
    TaskBody body;
  };

  std::vector<Task> tasks_;
};

}  // namespace nestra

#endif  // NESTRA_NRA_PIPELINE_H_
