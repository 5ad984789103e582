#include "sim/parallel_replay.h"

#include <algorithm>

namespace flor {
namespace sim {

namespace {

/// Workers are fully independent; on this single simulated host they run
/// sequentially while each accrues time on its own simulated clock.
class SequentialSimRunner : public PartitionRunner {
 public:
  Status Run(const ProgramFactory& factory, FileSystem* fs,
             const std::vector<ReplayOptions>& workers,
             const WorkerDone& done) override {
    for (size_t w = 0; w < workers.size(); ++w) {
      done(static_cast<int>(w),
           ReplayWorker(factory, fs, std::make_unique<SimClock>(),
                        workers[w]));
    }
    return Status::OK();
  }
};

}  // namespace

Result<ClusterReplayResult> ClusterReplay(const ProgramFactory& factory,
                                          FileSystem* shared_fs,
                                          const ReplaySpec& spec,
                                          const ClusterReplayOptions&
                                              options) {
  SequentialSimRunner runner;
  ClusterReplayResult result;
  FLOR_ASSIGN_OR_RETURN(
      static_cast<MergedClusterReplay&>(result),
      RunPartitionedReplay(factory, shared_fs, spec, &runner));

  // Simulated-cluster extras: machine billing.
  Cluster cluster;
  cluster.instance = options.instance;
  const int gpus = std::max(1, options.instance.gpus);
  cluster.num_machines = std::max(1, (spec.num_workers + gpus - 1) / gpus);
  result.machine_usage = PriceCluster(cluster, result.worker_seconds);
  result.total_cost_dollars = TotalClusterCost(result.machine_usage);
  return result;
}

}  // namespace sim
}  // namespace flor
