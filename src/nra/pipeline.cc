#include "nra/pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/trace.h"

namespace nestra {

namespace {

/// Everything the run needs, owned by a shared_ptr so pool closures stay
/// valid even though Run() only returns after the last task finished.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;

  // Immutable after construction.
  struct TaskRun {
    std::string label;
    StageDag::TaskBody body;
    std::vector<int> dependents;
  };
  std::vector<TaskRun> tasks;
  bool profile_enabled = false;
  // The query's memory tracker, captured from the thread that called Run():
  // task bodies execute on pool threads whose thread-local tracker slot is
  // empty, so each task re-installs this one for its own duration.
  QueryMemoryTracker* query_memory = nullptr;
  // False for the inline num_threads <= 1 mode, where the creation-order
  // loop runs every task itself: publishing ready tasks to the pool there
  // would run them a second time.
  bool parallel = false;

  // Guarded by mu.
  std::vector<int> pending_deps;
  std::vector<char> dep_failed;
  std::deque<int> ready;
  int unfinished = 0;

  // Each slot is written by exactly one task before its completion is
  // published under mu, and read by Run() only after unfinished hit zero.
  std::vector<Status> status;
  std::vector<char> skipped;
  std::vector<NraStats> stats;
  std::vector<QueryProfile> profiles;
};

/// Runs task `id` (or skips it when a dependency failed), then publishes
/// completion: dependents with no remaining dependencies enter the ready
/// set and get a pool runner each.
void RunTask(const std::shared_ptr<RunState>& state, int id);

/// Pops one ready task and runs it. Pool closures land here; finding the
/// ready set empty is normal (the caller stole the task) and a no-op.
void RunOneReady(const std::shared_ptr<RunState>& state) {
  int id = -1;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->ready.empty()) return;
    id = state->ready.front();
    state->ready.pop_front();
  }
  RunTask(state, id);
}

void RunTask(const std::shared_ptr<RunState>& state, int id) {
  RunState::TaskRun& task = state->tasks[static_cast<size_t>(id)];
  bool parent_failed = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    parent_failed = state->dep_failed[static_cast<size_t>(id)] != 0;
  }
  if (parent_failed) {
    state->skipped[static_cast<size_t>(id)] = 1;
  } else {
    telemetry::TraceSpan span("pipeline", task.label);
    ScopedQueryMemory scoped_mem(state->query_memory);
    state->status[static_cast<size_t>(id)] = task.body(
        &state->stats[static_cast<size_t>(id)],
        state->profile_enabled ? &state->profiles[static_cast<size_t>(id)]
                               : nullptr);
  }
  const bool failed = parent_failed ||
                      !state->status[static_cast<size_t>(id)].ok();

  size_t newly_ready = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (int dep_id : task.dependents) {
      if (failed) state->dep_failed[static_cast<size_t>(dep_id)] = 1;
      if (--state->pending_deps[static_cast<size_t>(dep_id)] == 0 &&
          state->parallel) {
        ++newly_ready;
        state->ready.push_back(dep_id);
      }
    }
    --state->unfinished;
  }
  state->cv.notify_all();
  if (!state->parallel) return;
  // One runner per newly-ready task keeps the schedule work-conserving even
  // while the calling thread is buried in a drained-inline helper task.
  ThreadPool* pool = ThreadPool::Shared();
  for (size_t i = 0; i < newly_ready; ++i) {
    pool->Submit([state] { RunOneReady(state); });
  }
}

}  // namespace

int StageDag::AddTask(std::string label, std::vector<int> deps,
                      TaskBody body) {
  const int id = static_cast<int>(tasks_.size());
  tasks_.push_back(Task{std::move(label), std::move(deps), std::move(body)});
  return id;
}

Status StageDag::Run(int num_threads, NraStats* stats,
                     QueryProfile* profile) {
  telemetry::Metrics().pipelined_queries_total->Add(1);
  telemetry::Metrics().pipeline_tasks_total->Add(
      static_cast<double>(tasks_.size()));

  auto state = std::make_shared<RunState>();
  const size_t n = tasks_.size();
  state->tasks.resize(n);
  state->pending_deps.assign(n, 0);
  state->dep_failed.assign(n, 0);
  state->status.assign(n, Status::OK());
  state->skipped.assign(n, 0);
  state->stats.resize(n);
  state->profiles.resize(n);
  state->profile_enabled = profile != nullptr;
  state->query_memory = CurrentQueryMemory();
  state->unfinished = static_cast<int>(n);
  for (size_t id = 0; id < n; ++id) {
    Task& t = tasks_[id];
    state->tasks[id].label = std::move(t.label);
    state->tasks[id].body = std::move(t.body);
    state->pending_deps[id] = static_cast<int>(t.deps.size());
    for (int dep : t.deps) {
      state->tasks[static_cast<size_t>(dep)].dependents.push_back(
          static_cast<int>(id));
    }
  }

  if (num_threads <= 1) {
    // Inline in creation order, stopping at the first error: the serial
    // stage-at-a-time schedule.
    for (size_t id = 0; id < n; ++id) {
      RunTask(state, static_cast<int>(id));
      if (!state->status[id].ok()) return state->status[id];
    }
  } else {
    state->parallel = true;
    for (size_t id = 0; id < n; ++id) {
      if (state->pending_deps[id] == 0) state->ready.push_back(
          static_cast<int>(id));
    }
    // Leave one seed task for this thread; hand the rest to the pool.
    ThreadPool* pool = ThreadPool::Shared();
    pool->EnsureWorkers(num_threads - 1);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      for (size_t i = 1; i < state->ready.size(); ++i) {
        pool->Submit([state] { RunOneReady(state); });
      }
    }
    // The calling thread participates: run ready DAG tasks; when starved,
    // help drain unrelated pool work (nested morsel-loop helpers submitted
    // by running task bodies) instead of parking, so the pool can never
    // wedge with every thread waiting on work nobody is free to run.
    while (true) {
      int id = -1;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        if (state->unfinished == 0) break;
        if (!state->ready.empty()) {
          id = state->ready.front();
          state->ready.pop_front();
        }
      }
      if (id >= 0) {
        RunTask(state, id);
        continue;
      }
      if (!pool->TryRunOne()) {
        std::unique_lock<std::mutex> lock(state->mu);
        state->cv.wait(lock, [&] {
          return state->unfinished == 0 || !state->ready.empty();
        });
      }
    }
  }

  // First failure in creation order, exactly what the serial schedule
  // (which stops there) surfaces.
  for (size_t id = 0; id < n; ++id) {
    if (!state->status[id].ok()) return state->status[id];
  }
  // Merge in creation order, the serial stage order — so profiles compare
  // equal stage-for-stage at every thread count.
  for (size_t id = 0; id < n; ++id) {
    if (stats != nullptr) {
      const NraStats& s = state->stats[id];
      stats->join_seconds += s.join_seconds;
      stats->nest_select_seconds += s.nest_select_seconds;
      stats->intermediate_rows =
          std::max(stats->intermediate_rows, s.intermediate_rows);
      stats->output_rows = std::max(stats->output_rows, s.output_rows);
    }
    if (profile != nullptr) profile->Absorb(state->profiles[id], "");
  }
  return Status::OK();
}

}  // namespace nestra
