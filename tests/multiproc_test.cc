// Multi-process campaign sharding tests: the determinism contract extended
// across process boundaries. A campaign run at any procs × threads
// combination — warm or cold — must be byte-identical (fingerprint() AND
// verdict_fingerprint()) to the sequential single-process reference, and
// SIGKILLing a worker mid-campaign must cost wall clock only: the dead
// shard's unfinished lease is re-queued onto survivors and the merged
// result is unchanged. tests/differential_test.cc draws random campaigns
// across procs and the other execution modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/process_pool.h"
#include "campaign/runner.h"

namespace gremlin::campaign {
namespace {

std::vector<Experiment> buggy_tree_sweep() {
  const AppSpec app = AppSpec::buggy_tree();
  SweepOptions options;
  options.load.count = 30;
  options.load.gap = msec(5);
  options.seed = 42;
  return generate_sweep(app, app.probe_graph(), options);
}

RunnerOptions opts(int procs, int threads, bool warm) {
  RunnerOptions o;
  o.procs = procs;
  o.threads = threads;
  o.warm_worlds = warm;
  o.keep_latencies = true;  // byte-identity must cover raw latencies too
  o.early_exit = false;     // full runs: fingerprints cover every request
  return o;
}

TEST(MultiprocTest, AvailableOnPosix) { EXPECT_TRUE(multiproc_available()); }

TEST(MultiprocTest, ByteIdenticalAcrossProcsThreadsMatrix) {
  if (!multiproc_available()) GTEST_SKIP() << "no fork on this platform";
  const auto experiments = buggy_tree_sweep();

  for (const bool warm : {true, false}) {
    const CampaignResult reference =
        CampaignRunner(opts(1, 1, warm)).run(experiments);
    ASSERT_EQ(reference.experiments.size(), experiments.size());
    ASSERT_EQ(reference.procs, 1);

    struct Combo {
      int procs;
      int threads;
    };
    for (const Combo c : {Combo{2, 1}, Combo{2, 2}, Combo{4, 1}}) {
      const CampaignResult sharded =
          CampaignRunner(opts(c.procs, c.threads, warm)).run(experiments);
      EXPECT_EQ(sharded.procs, c.procs);
      EXPECT_EQ(sharded.threads, c.threads);
      ASSERT_EQ(sharded.experiments.size(), experiments.size());
      EXPECT_EQ(sharded.fingerprint(), reference.fingerprint())
          << "procs=" << c.procs << " threads=" << c.threads
          << " warm=" << warm;
      EXPECT_EQ(sharded.verdict_fingerprint(),
                reference.verdict_fingerprint())
          << "procs=" << c.procs << " threads=" << c.threads
          << " warm=" << warm;
      // Merge is in experiment order, independent of delivery order.
      for (size_t i = 0; i < experiments.size(); ++i) {
        ASSERT_EQ(sharded.experiments[i].id, experiments[i].id);
      }
    }
  }
}

TEST(MultiprocTest, EarlyExitVerdictsMatchSingleProcess) {
  if (!multiproc_available()) GTEST_SKIP() << "no fork on this platform";
  const auto experiments = buggy_tree_sweep();
  RunnerOptions single = opts(1, 1, true);
  single.early_exit = true;
  RunnerOptions sharded_opts = opts(2, 1, true);
  sharded_opts.early_exit = true;

  const CampaignResult reference = CampaignRunner(single).run(experiments);
  const CampaignResult sharded =
      CampaignRunner(sharded_opts).run(experiments);
  // Early exit preserves byte-identity across procs too: whether a sim
  // stops early depends only on the experiment, never on the shard.
  EXPECT_EQ(sharded.fingerprint(), reference.fingerprint());
  EXPECT_EQ(sharded.verdict_fingerprint(), reference.verdict_fingerprint());
}

TEST(MultiprocTest, OnResultFiresOncePerExperiment) {
  if (!multiproc_available()) GTEST_SKIP() << "no fork on this platform";
  const auto experiments = buggy_tree_sweep();
  std::atomic<size_t> calls{0};
  RunnerOptions o = opts(2, 1, true);
  o.on_result = [&calls](const ExperimentResult&) { ++calls; };
  const CampaignResult result = CampaignRunner(o).run(experiments);
  EXPECT_EQ(result.experiments.size(), experiments.size());
  EXPECT_EQ(calls.load(), experiments.size());
}

TEST(MultiprocTest, SingleExperimentSkipsFork) {
  // One experiment cannot be sharded; the runner must stay in-process
  // (procs reports 1, result identical to a direct run).
  auto experiments = buggy_tree_sweep();
  experiments.resize(1);
  const CampaignResult result =
      CampaignRunner(opts(4, 1, true)).run(experiments);
  EXPECT_EQ(result.procs, 1);
  const CampaignResult reference =
      CampaignRunner(opts(1, 1, true)).run(experiments);
  EXPECT_EQ(result.fingerprint(), reference.fingerprint());
}

TEST(MultiprocCrashTest, KilledWorkerLeaseIsRequeued) {
  if (!multiproc_available()) GTEST_SKIP() << "no fork on this platform";
  const auto experiments = buggy_tree_sweep();
  const CampaignResult reference =
      CampaignRunner(opts(1, 1, true)).run(experiments);

  // SIGKILL the first worker after it has streamed a few results: its
  // announced-but-undelivered lease plus everything it would have claimed
  // must be picked up by the surviving worker (or the parent inline).
  MultiprocHooks hooks;
  hooks.kill_first_worker_after_results = 3;
  const CampaignResult survived =
      run_multiproc(experiments, opts(2, 1, true), &hooks);
  ASSERT_EQ(survived.experiments.size(), experiments.size());
  EXPECT_EQ(survived.fingerprint(), reference.fingerprint());
  EXPECT_EQ(survived.verdict_fingerprint(), reference.verdict_fingerprint());
}

TEST(MultiprocCrashTest, ImmediateKillStillCompletes) {
  if (!multiproc_available()) GTEST_SKIP() << "no fork on this platform";
  const auto experiments = buggy_tree_sweep();
  const CampaignResult reference =
      CampaignRunner(opts(1, 1, true)).run(experiments);

  // Kill before the first result: the dead worker delivered nothing, so
  // recovery has to re-queue its entire announced lease.
  MultiprocHooks hooks;
  hooks.kill_first_worker_after_results = 0;
  const CampaignResult survived =
      run_multiproc(experiments, opts(2, 1, true), &hooks);
  ASSERT_EQ(survived.experiments.size(), experiments.size());
  EXPECT_EQ(survived.fingerprint(), reference.fingerprint());
}

}  // namespace
}  // namespace gremlin::campaign
