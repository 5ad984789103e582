// The partitioned-replay driver (flor/replay_plan.h) in isolation: it must
// merge whatever a PartitionRunner reports into the same bytes no matter
// the order workers report in, and it must name the worker when one fails
// or never reports. The engine suites only ever drive the driver through
// their own well-behaved runners.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/replay_executor.h"
#include "flor/record.h"
#include "flor/replay_plan.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

WorkloadProfile DriverProfile() {
  WorkloadProfile p;
  p.name = "DriverT";
  p.epochs = 12;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(61);
  return p;
}

void RecordOnto(FileSystem* fs, const WorkloadProfile& profile) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordSession session(&env,
                        workloads::DefaultRecordOptions(profile, "run"));
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

ReplaySpec DriverSpec() {
  ReplaySpec spec;
  spec.run_prefix = "run";
  spec.num_workers = 4;
  spec.init_mode = InitMode::kWeak;
  return spec;
}

/// Replays every worker in-process, then reports them last worker first,
/// optionally replacing one worker's outcome with `fail_status` or
/// leaving worker `skip` unreported.
class ReverseOrderRunner : public PartitionRunner {
 public:
  int fail_worker = -1;
  Status fail_status = Status::OK();
  int skip_worker = -1;
  std::vector<int> report_order;

  Status Run(const ProgramFactory& factory, FileSystem* fs,
             const std::vector<ReplayOptions>& workers,
             const WorkerDone& done) override {
    std::vector<Result<ReplayResult>> results;
    for (const ReplayOptions& worker : workers) {
      results.push_back(ReplayWorker(factory, fs,
                                     std::make_unique<WallClock>(), worker));
    }
    for (int w = static_cast<int>(workers.size()) - 1; w >= 0; --w) {
      if (w == skip_worker) continue;
      report_order.push_back(w);
      if (w == fail_worker) {
        done(w, fail_status);
      } else {
        done(w, std::move(results[static_cast<size_t>(w)]));
      }
    }
    return Status::OK();
  }
};

TEST(ReplayDriver, OutOfOrderReportsMergeToTheThreadRunnersBytes) {
  MemFileSystem fs;
  const WorkloadProfile profile = DriverProfile();
  RecordOnto(&fs, profile);
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeInner);

  auto threaded =
      exec::ReplayExecutor(&fs, DriverSpec(), {/*num_threads=*/4})
          .Run(factory);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  ASSERT_EQ(threaded->workers_used, 4);

  ReverseOrderRunner runner;
  auto merged = RunPartitionedReplay(factory, &fs, DriverSpec(), &runner);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(runner.report_order, (std::vector<int>{3, 2, 1, 0}));

  EXPECT_EQ(merged->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
  ASSERT_EQ(merged->probe_entries.size(), threaded->probe_entries.size());
  for (size_t i = 0; i < merged->probe_entries.size(); ++i)
    EXPECT_EQ(merged->probe_entries[i], threaded->probe_entries[i]);
  EXPECT_TRUE(merged->deferred.ok);
  EXPECT_EQ(merged->deferred.ok, threaded->deferred.ok);
  EXPECT_EQ(merged->deferred.entries_compared,
            threaded->deferred.entries_compared);
  EXPECT_EQ(merged->deferred.anomalies, threaded->deferred.anomalies);
  EXPECT_EQ(merged->workers_used, threaded->workers_used);
  EXPECT_EQ(merged->partition_segments, threaded->partition_segments);
  EXPECT_EQ(merged->skipblocks.executed, threaded->skipblocks.executed);
  EXPECT_EQ(merged->skipblocks.skipped, threaded->skipblocks.skipped);
  EXPECT_EQ(merged->skipblocks.restores, threaded->skipblocks.restores);
  EXPECT_EQ(merged->worker_seconds.size(), 4u);
}

TEST(ReplayDriver, FailingWorkerIsNamedInTheError) {
  MemFileSystem fs;
  const WorkloadProfile profile = DriverProfile();
  RecordOnto(&fs, profile);
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeInner);

  ReverseOrderRunner failing;
  failing.fail_worker = 2;
  failing.fail_status = Status::IOError("checkpoint shard unreadable");
  auto failed = RunPartitionedReplay(factory, &fs, DriverSpec(), &failing);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  EXPECT_EQ(failed.status().message(),
            "replay worker 2: checkpoint shard unreadable");

  // A worker the runner never reports fails the replay too, by name.
  ReverseOrderRunner silent;
  silent.skip_worker = 1;
  auto missing = RunPartitionedReplay(factory, &fs, DriverSpec(), &silent);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("replay worker 1"),
            std::string::npos)
      << missing.status().ToString();
}

TEST(ReplayDriver, RunnerFailurePassesThroughUnchanged) {
  MemFileSystem fs;
  const WorkloadProfile profile = DriverProfile();
  RecordOnto(&fs, profile);

  class BrokenRunner : public PartitionRunner {
   public:
    Status Run(const ProgramFactory&, FileSystem*,
               const std::vector<ReplayOptions>&,
               const WorkerDone&) override {
      return Status::Aborted("pool lost");
    }
  } broken;
  auto failed = RunPartitionedReplay(MakeWorkloadFactory(profile, kProbeInner),
                                     &fs, DriverSpec(), &broken);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAborted);
  EXPECT_EQ(failed.status().message(), "pool lost");
}

}  // namespace
}  // namespace flor
