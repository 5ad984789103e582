// Deterministic *simulated* parallel-replay engine (paper §5.4.3, §5.4.4).
//
// Launches one ReplaySession per GPU worker. Workers are fully independent
// — no coordination or communication, exactly as in the paper — so on this
// simulated host they execute sequentially while each accrues time on its
// own simulated clock. Replay latency is the max over workers (plus
// nothing: there is no merge barrier in Flor; log partitions are
// concatenated by key order).
//
// This engine is a PartitionRunner over the shared driver
// (flor/replay_plan.h), which plans, merges and deferred-checks for every
// engine, so all three produce byte-identical merged logs; this one adds
// paper-scale latency modeling and cluster billing on top.

#ifndef FLOR_SIM_PARALLEL_REPLAY_H_
#define FLOR_SIM_PARALLEL_REPLAY_H_

#include "env/filesystem.h"
#include "flor/replay.h"
#include "flor/replay_plan.h"
#include "sim/cluster.h"

namespace flor {
namespace sim {

/// Simulated-runner knobs: only the billing shape. Workers fill machines
/// of this instance type in worker order; the machine count follows from
/// the spec's partition count G (ceil(G / instance.gpus)).
struct ClusterReplayOptions {
  Ec2Instance instance = kP3_8xLarge;
};

/// Aggregate outcome of a cluster replay: the engine-agnostic merge
/// (latency, merged logs, deferred check — flor/replay_plan.h) plus
/// simulated-cluster billing.
struct ClusterReplayResult : MergedClusterReplay {
  /// Machine billing.
  std::vector<MachineUsage> machine_usage;
  double total_cost_dollars = 0;
};

/// Runs a parallel replay of `spec` (the record run at spec.run_prefix,
/// stored on `shared_fs`). `factory` rebuilds the *current* (possibly
/// probed) program for each worker.
Result<ClusterReplayResult> ClusterReplay(
    const ProgramFactory& factory, FileSystem* shared_fs,
    const ReplaySpec& spec,
    const ClusterReplayOptions& options = ClusterReplayOptions());

}  // namespace sim
}  // namespace flor

#endif  // FLOR_SIM_PARALLEL_REPLAY_H_
