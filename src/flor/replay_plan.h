// Partitioned hindsight replay: one spec, one driver, pluggable runners.
//
// The paper's parallel replay has four steps: plan the main loop into G
// partitions, replay each partition on an independent worker, merge the
// workers' logs, deferred-check the merged log once. RunPartitionedReplay
// is the only implementation of that plan -> run -> merge sequence. What
// differs between engines is only *how* the planned workers execute, which
// a PartitionRunner supplies:
//   * sim::ClusterReplay            — sequential workers, simulated clocks
//     (deterministic paper-scale latency modeling);
//   * exec::ReplayExecutor          — work-stealing thread pool, wall clock
//     (measured speedup);
//   * exec::ProcessReplayExecutor   — bounded fork pool, one process per
//     partition (true isolation, retry and speculation).
// Because planning and merging are shared, the merged replay logs are
// byte-identical across engines, thread counts and partition counts.
//
// Checkpoint-store sharding is invisible at this layer by design: each
// worker's ReplaySession reads the shard count from the record manifest
// and routes object reads itself, so partition planning and log merging
// are identical for flat and sharded stores.

#ifndef FLOR_FLOR_REPLAY_PLAN_H_
#define FLOR_FLOR_REPLAY_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/filesystem.h"
#include "flor/replay.h"

namespace flor {

/// What a partitioned replay replays: the record run, the partition count
/// G, the init mode, the restore-cost model and optional iteration
/// sampling, plus the read-tier fields (bucket + bloom) from the shared
/// TierOptions base (checkpoint/store.h). This is the only declaration of
/// these fields for partitioned replay; the engines' option structs carry
/// only their runner knobs (how partitions execute, never what they are).
struct ReplaySpec : TierOptions {
  std::string run_prefix = "run";
  /// Requested log partitions (the paper's G). The effective worker count
  /// can be lower when the main loop is short or checkpoints are sparse.
  int num_workers = 1;
  InitMode init_mode = InitMode::kStrong;
  /// Cost model for restore pricing (only charged under simulated clocks).
  MaterializerCosts costs;
  /// Non-empty selects iteration-sampling replay on a single worker.
  std::vector<int64_t> sample_epochs;
};

/// Main-loop epochs usable as partition boundaries for `program`: every
/// skippable epoch-level loop has a checkpoint there (intersection across
/// loops). `program` must already be instrumented.
std::vector<int64_t> CheckpointBoundaryEpochs(ir::Program* program,
                                              const Manifest& manifest);

/// Plans how many replay sessions a partitioned replay needs, without
/// executing anything: builds a fresh instance, instruments it, reads the
/// record manifest from `fs`, and partitions the main loop. Falls back to
/// `options.num_workers` when the main-loop trip count is not statically
/// known (surplus workers then plan themselves empty at run time).
Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ReplaySpec& options);

/// Per-worker ReplayOptions derived from the spec. The
/// deferred check is disabled per worker: the merger checks the merged
/// stream once.
ReplayOptions WorkerReplayOptions(const ReplaySpec& options,
                                  int worker_id);

/// Main-loop epochs whose checkpoints the replay planned by `options` will
/// restore during worker initialization (weak init: each worker's single
/// pre-segment epoch; strong init: every epoch before each work segment;
/// sampling: the weak-init epoch before every non-contiguous jump), as a
/// sorted, deduplicated list. Retention pins these
/// (GcPolicy::pinned_epochs) so a replay planned before a GC pass still
/// finds every checkpoint it restores — the GC-side half of "no engine
/// ever observes a retired epoch it was planned against". Fails when
/// the main-loop trip count is not statically known (such plans are made
/// at run time and cannot be pinned ahead of a GC).
Result<std::vector<int64_t>> PlannedRestoreEpochs(
    const ProgramFactory& factory, const FileSystem* fs,
    const ReplaySpec& options);

/// Engine-agnostic aggregate of a partitioned replay.
struct MergedClusterReplay {
  /// Max over worker runtimes (no merge barrier in Flor; partitions are
  /// concatenated by worker order).
  double latency_seconds = 0;
  std::vector<double> worker_seconds;
  int workers_used = 0;
  int64_t partition_segments = 0;
  InitMode effective_init = InitMode::kStrong;
  /// Work-segment log entries of all workers, in partition order.
  exec::LogStream merged_logs;
  std::vector<exec::LogEntry> probe_entries;
  DeferredCheckReport deferred;
  SkipBlockStats skipblocks;
  /// Total restores served by the bucket tier across workers.
  int64_t bucket_faults = 0;
  /// Total store lookups the workers' bloom filters short-circuited.
  int64_t bloom_skipped_probes = 0;
};

/// Header tag of worker result files (serialize/frame.h sectioned
/// envelope): frame 0 reads "florres1\t<n>".
inline constexpr char kResultFileTag[] = "florres1";

/// Encodes one worker's ReplayResult for out-of-process transport — the
/// fork-per-partition engine (exec/process_executor.h) has each child
/// write this to a CRC-framed result file (kResultFileTag) and the
/// parent decode it back into the exact ReplayResult an in-process worker
/// would have handed the merger. The round trip is lossless: doubles
/// travel as hexfloat, log fragments via LogStream's line encoding.
std::string EncodeWorkerResult(const ReplayResult& result);

/// Inverse of EncodeWorkerResult. Truncated or mutated bytes fail with
/// Corruption — a successfully decoded result is safe to merge.
Result<ReplayResult> DecodeWorkerResult(const std::string& data);

/// Accumulates per-worker ReplayResults (in any completion order), then
/// merges logs in worker order and runs the merged deferred check against
/// the record logs. Thread-compatible: callers serialize Add/Finish (the
/// driver adds results on the thread that runs the PartitionRunner).
/// Results may come from in-process workers or be decoded from another
/// process's result file (DecodeWorkerResult) — the merge is identical.
class ReplayMerger {
 public:
  void Add(int worker_id, ReplayResult result);

  /// Merges and deferred-checks. `fs` supplies the record logs under
  /// `run_prefix`. Single-use.
  Result<MergedClusterReplay> Finish(const FileSystem* fs,
                                     const std::string& run_prefix);

 private:
  std::vector<std::pair<int, ReplayResult>> workers_;
};

/// One worker replayed in-process: builds a fresh program instance from
/// `factory` and runs a ReplaySession with `options` on an env of `clock`
/// over `fs`. The in-process runners call this per partition; the fork
/// runner calls it inside each child.
Result<ReplayResult> ReplayWorker(const ProgramFactory& factory,
                                  FileSystem* fs,
                                  std::unique_ptr<Clock> clock,
                                  const ReplayOptions& options);

/// Receives one planned worker's outcome, by worker id.
using WorkerDone =
    std::function<void(int worker_id, Result<ReplayResult> result)>;

/// Executes the planned partitions of one replay; knows nothing of
/// planning or merging.
class PartitionRunner {
 public:
  virtual ~PartitionRunner() = default;

  /// Replays every planned worker — worker w with `workers[w]`
  /// (WorkerReplayOptions of the spec) against `fs` — and reports each
  /// worker's outcome exactly once through `done`, in any order, on the
  /// calling thread. A worker that fails is reported with its Status; a
  /// non-OK return fails the whole replay with that Status instead (for
  /// failures the runner diagnoses itself, such as dead processes).
  virtual Status Run(const ProgramFactory& factory, FileSystem* fs,
                     const std::vector<ReplayOptions>& workers,
                     const WorkerDone& done) = 0;
};

/// The partitioned-replay driver: plans the workers of `spec` once
/// (PlanActiveWorkers), has `runner` execute WorkerReplayOptions(spec, w)
/// for every active worker w, and merges and deferred-checks once
/// (ReplayMerger::Finish). A worker that fails or never reports fails
/// the replay with an error naming it (the lowest failing worker id).
Result<MergedClusterReplay> RunPartitionedReplay(const ProgramFactory& factory,
                                                 FileSystem* fs,
                                                 const ReplaySpec& spec,
                                                 PartitionRunner* runner);

}  // namespace flor

#endif  // FLOR_FLOR_REPLAY_PLAN_H_
