// Real thread-pool parallel replay engine (paper §5.4, Fig. 10/13 — the
// measured counterpart of sim::ClusterReplay).
//
// The executor runs one ReplaySession per log partition on N worker
// threads, work-stealing over the partitions, against a shared thread-safe
// FileSystem and the wall clock. It is a PartitionRunner over the shared
// driver (flor/replay_plan.h): partition planning and log merging are the
// exact code the simulated engine runs, so the merged replay log is
// byte-identical to a single-thread run and to the simulated engine — only
// the latency is measured instead of modeled.
//
// Worker sessions never synchronize with each other (hindsight replay is
// embarrassingly parallel): each builds its own program instance, owns its
// own clock and log stream, and only shares the read-only record artifacts
// through the FileSystem. The coordinating thread merges partitions after
// all workers join.

#ifndef FLOR_EXEC_REPLAY_EXECUTOR_H_
#define FLOR_EXEC_REPLAY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "flor/replay_plan.h"

namespace flor {
namespace exec {

/// Minimal work-stealing task pool. Task indices are dealt round-robin to
/// per-thread deques; a thread pops its own deque from the front and, when
/// empty, steals from the back of a victim's deque. Blocks until all tasks
/// complete. Tasks must not block on each other.
class WorkStealingPool {
 public:
  struct Stats {
    int64_t tasks_run = 0;
    /// Tasks executed by a thread other than the one they were dealt to.
    int64_t steals = 0;
  };

  /// Runs all `tasks` on `num_threads` threads (inline when either count
  /// is <= 1).
  static Stats Run(int num_threads,
                   const std::vector<std::function<void()>>& tasks);
};

/// Thread-runner knobs: only the pool size. The partition count G is the
/// spec's num_workers and may exceed num_threads: threads then steal the
/// surplus partitions.
struct ReplayExecutorOptions {
  /// Worker threads in the pool.
  int num_threads = 4;
};

/// Outcome of a real parallel replay: the engine-agnostic merge (latency,
/// merged logs — byte-identical across thread counts and engines —
/// deferred check; flor/replay_plan.h) plus pool-side measurements.
struct ReplayExecutorResult : MergedClusterReplay {
  /// Measured wall-clock time of the whole replay (plan + sessions +
  /// merge), coordinating thread perspective; latency_seconds from the
  /// base is the max over worker session runtimes (no-barrier latency).
  double wall_seconds = 0;
  int threads_used = 0;
  /// Partitions executed by a thread they were not dealt to.
  int64_t steals = 0;
};

/// Runs partitioned hindsight replay on a real thread pool. Single-use per
/// Run call; the executor itself holds no per-run state.
class ReplayExecutor {
 public:
  /// Replays `spec` on `shared_fs`. Does not own `shared_fs`, which must
  /// be thread-safe (all flor FileSystem implementations are).
  ReplayExecutor(FileSystem* shared_fs, ReplaySpec spec,
                 ReplayExecutorOptions options = ReplayExecutorOptions());

  /// Plans partitions, replays them on the pool, merges, deferred-checks.
  /// `factory` is invoked once per worker, on the worker's thread; it must
  /// be safe to call concurrently (workload factories build fresh,
  /// disjoint instances).
  Result<ReplayExecutorResult> Run(const ProgramFactory& factory);

 private:
  FileSystem* fs_;
  ReplaySpec spec_;
  ReplayExecutorOptions options_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_REPLAY_EXECUTOR_H_
