// Prefix-snapshot execution tests: the byte-identity contract (an
// experiment restored from a fault-free prefix snapshot produces exactly
// the results a cold run would), cache hit/miss accounting and its
// surfacing in campaign reports, the eligibility rules, snapshot hygiene (a
// world that has hosted snapshot runs deep-resets to the cold-start state),
// and a seeded fuzz over random activation offsets — i.e. random snapshot
// instants. tests/differential_test.cc draws random campaigns across every
// execution mode on top of the fixed matrices here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "campaign/warm_world.h"
#include "common/rng.h"
#include "report/campaign_report.h"
#include "sim/simulation.h"

namespace gremlin::campaign {
namespace {

control::LoadOptions small_load() {
  control::LoadOptions load;
  load.count = 30;
  load.gap = msec(5);
  return load;
}

// A sweep where every failure spec carries an activation window starting
// mid-load — the shape prefix snapshots exist for. Two windows share one
// load/seed, so siblings exercise both cache misses and hits.
std::vector<Experiment> windowed_tree_sweep(uint64_t seed = 42) {
  const AppSpec app = AppSpec::buggy_tree();
  SweepOptions options;
  options.load = small_load();
  options.seed = seed;
  options.windows.push_back({msec(20), Duration{}});
  options.windows.push_back({msec(40), msec(30)});
  return generate_sweep(app, app.probe_graph(), options);
}

Experiment windowed_abort(Duration after, uint64_t seed = 42) {
  Experiment e;
  e.id = "abort(serviceA->serviceB) after=" +
         std::to_string(after.count()) + "us";
  e.app = AppSpec::quickstart(3, msec(50));
  auto spec = control::FailureSpec::abort_edge("serviceA", "serviceB");
  spec.after = after;
  e.failures.push_back(spec);
  e.client = "user";
  e.target = "serviceA";
  e.load = small_load();
  e.checks.push_back(CheckSpec::max_user_failures(1000));
  e.seed = seed;
  return e;
}

// --- the headline contract: snapshot == cold, byte for byte ---------------

TEST(SnapshotColdDifferentialTest, CampaignByteIdenticalAcrossMatrix) {
  // The hard invariant of prefix-snapshot execution: for every thread
  // count, with the timer wheel on or off, and with early exit on or off,
  // a campaign run from restored snapshots is byte-identical —
  // fingerprint() AND verdict_fingerprint() — to a cold one.
  const auto experiments =
      replicate_seeds(windowed_tree_sweep(), {7, 1234567});
  for (const bool early_exit : {true, false}) {
    RunnerOptions cold_options;
    cold_options.threads = 1;
    cold_options.early_exit = early_exit;
    cold_options.warm_worlds = false;
    const CampaignResult cold = CampaignRunner(cold_options).run(experiments);

    for (const bool wheel : {true, false}) {
      for (const int threads : {1, 4, 8}) {
        RunnerOptions snap_options;
        snap_options.threads = threads;
        snap_options.early_exit = early_exit;
        snap_options.warm_worlds = true;
        snap_options.use_snapshots = true;
        snap_options.use_timer_wheel = wheel;
        const CampaignResult snap =
            CampaignRunner(snap_options).run(experiments);
        ASSERT_EQ(snap.experiments.size(), cold.experiments.size());
        EXPECT_EQ(snap.fingerprint(), cold.fingerprint())
            << "threads=" << threads << " wheel=" << wheel
            << " early_exit=" << early_exit;
        EXPECT_EQ(snap.verdict_fingerprint(), cold.verdict_fingerprint())
            << "threads=" << threads << " wheel=" << wheel
            << " early_exit=" << early_exit;
      }
    }

    // --no-snapshot parity: disabling the cache changes nothing but the
    // execution path.
    RunnerOptions off_options;
    off_options.threads = 1;
    off_options.early_exit = early_exit;
    off_options.use_snapshots = false;
    const CampaignResult off = CampaignRunner(off_options).run(experiments);
    EXPECT_EQ(off.fingerprint(), cold.fingerprint());
    EXPECT_EQ(off.verdict_fingerprint(), cold.verdict_fingerprint());
  }
}

TEST(SnapshotColdDifferentialTest, MultiprocessByteIdentical) {
  // Snapshot stats ride the result wire format (codec v3); the merged
  // multi-process campaign must stay byte-identical and preserve the
  // per-experiment snapshot_path markers.
  const auto experiments = replicate_seeds(windowed_tree_sweep(), {3, 99});
  RunnerOptions one;
  one.threads = 2;
  one.procs = 1;
  const CampaignResult single = CampaignRunner(one).run(experiments);

  RunnerOptions two = one;
  two.procs = 2;
  const CampaignResult sharded = CampaignRunner(two).run(experiments);

  EXPECT_EQ(sharded.fingerprint(), single.fingerprint());
  EXPECT_EQ(sharded.verdict_fingerprint(), single.verdict_fingerprint());
  size_t snapshot_runs = 0;
  for (const auto& e : sharded.experiments) {
    if (e.snapshot_path != 0) ++snapshot_runs;
  }
  EXPECT_GT(snapshot_runs, 0u);
}

// --- cache accounting and report surfacing --------------------------------

TEST(SnapshotCacheTest, SiblingsHitTheSharedPrefix) {
  // Two experiments that differ only in fault rules share (seed, load,
  // client, target): the first builds the prefix snapshot, the second
  // restores it.
  const Experiment first = windowed_abort(msec(25));
  Experiment second = windowed_abort(msec(25));
  second.failures.clear();
  auto delay = control::FailureSpec::delay_edge("serviceA", "serviceB",
                                                msec(40));
  delay.after = msec(25);
  second.failures.push_back(delay);
  second.id = "delay(serviceA->serviceB) after=25ms";

  WarmWorld world(first.app);
  ExecOptions exec;
  const ExperimentResult a = world.run(first, exec);
  const ExperimentResult b = world.run(second, exec);
  EXPECT_EQ(a.snapshot_path, 1) << "first eligible run builds the snapshot";
  EXPECT_EQ(b.snapshot_path, 2) << "sibling restores it";
  EXPECT_GT(b.prefix_events_skipped, 0u);
  EXPECT_EQ(world.snapshots().misses(), 1u);
  EXPECT_EQ(world.snapshots().hits(), 1u);
  EXPECT_GT(world.snapshots().prefix_events_skipped(), 0u);

  // Both paths remain byte-identical to cold execution.
  EXPECT_EQ(a.fingerprint(), CampaignRunner::run_one(first, exec).fingerprint());
  EXPECT_EQ(b.fingerprint(),
            CampaignRunner::run_one(second, exec).fingerprint());
}

TEST(SnapshotCacheTest, RecordingPrefixRestoresItsObservations) {
  // A check that reads records keeps capture on through the prefix, so
  // the snapshot carries each agent's buffered observations (the restore
  // copies them into the live buffer) and its error rate counts the
  // prefix's successes: a dropped or stale buffer changes the detail.
  Experiment e = windowed_abort(msec(62));
  e.checks = {CheckSpec::error_rate_below("serviceA", "serviceB", 0.5)};
  for (const bool early_exit : {false, true}) {
    ExecOptions exec;
    exec.early_exit = early_exit;
    const std::string cold = CampaignRunner::run_one(e, exec).fingerprint();
    WarmWorld world(e.app);
    const ExperimentResult miss = world.run(e, exec);
    const ExperimentResult hit = world.run(e, exec);
    const ExperimentResult again = world.run(e, exec);
    EXPECT_EQ(miss.snapshot_path, 1);
    EXPECT_EQ(hit.snapshot_path, 2);
    EXPECT_EQ(miss.fingerprint(), cold);
    EXPECT_EQ(hit.fingerprint(), cold);
    EXPECT_EQ(again.fingerprint(), cold);
  }
}

TEST(SnapshotCacheTest, LoadOnlyAndRecordPanelsKeepSeparatePrefixes) {
  // Two siblings with one seed, load and window but different panels: the
  // load-only panel reads no records, so its prefix runs with capture off;
  // the record panel's prefix keeps capture on. Each gets its own cache
  // entry, in either order, and every run matches cold byte for byte.
  Experiment load_only = windowed_abort(msec(62));
  load_only.checks = {CheckSpec::max_user_failures(0)};
  Experiment records = load_only;
  records.checks = {CheckSpec::error_rate_below("serviceA", "serviceB", 0.5),
                    CheckSpec::has_timeouts("serviceA", msec(100)),
                    CheckSpec::max_user_failures(0)};
  for (const bool early_exit : {false, true}) {
    ExecOptions exec;
    exec.early_exit = early_exit;
    const ExperimentResult cold_load = CampaignRunner::run_one(load_only, exec);
    const ExperimentResult cold_records =
        CampaignRunner::run_one(records, exec);
    for (const bool load_first : {true, false}) {
      SCOPED_TRACE(testing::Message() << "early_exit " << early_exit
                                      << " load_first " << load_first);
      WarmWorld world(load_only.app);
      const std::vector<const Experiment*> order =
          load_first ? std::vector<const Experiment*>{&load_only, &records}
                     : std::vector<const Experiment*>{&records, &load_only};
      // The first round builds both prefixes, the second restores them.
      for (const int path : {1, 2}) {
        for (const Experiment* e : order) {
          const ExperimentResult& cold =
              e == &load_only ? cold_load : cold_records;
          const ExperimentResult r = world.run(*e, exec);
          EXPECT_EQ(r.snapshot_path, path);
          EXPECT_EQ(r.fingerprint(), cold.fingerprint());
          EXPECT_EQ(r.verdict_fingerprint(), cold.verdict_fingerprint());
          if (e != &load_only || path != 2) continue;
          // The load-only prefix captured nothing, so its restore left no
          // prefix records in any agent.
          sim::Simulation* sim = world.simulation();
          for (size_t i = 0; i < sim->service_count(); ++i) {
            sim::SimService* svc =
                sim->service_by_index(static_cast<int32_t>(i));
            for (size_t j = 0; j < svc->instance_count(); ++j) {
              EXPECT_EQ(svc->instance(j).agent()->buffered_records(), 0u)
                  << svc->name();
            }
          }
        }
      }
      EXPECT_EQ(world.snapshots().misses(), 2u);
      EXPECT_EQ(world.snapshots().hits(), 2u);
    }
  }
}

TEST(SnapshotCacheTest, ImmediateFaultsDegradeToWarmPath) {
  // after == 0 means no sharable fault-free prefix: the run takes the
  // normal warm path (snapshot_path == 0) and stays byte-identical.
  const Experiment e = windowed_abort(Duration{});
  WarmWorld world(e.app);
  ExecOptions exec;
  const ExperimentResult r = world.run(e, exec);
  EXPECT_EQ(r.snapshot_path, 0);
  EXPECT_EQ(world.snapshots().misses(), 0u);
  EXPECT_EQ(world.snapshots().hits(), 0u);
  EXPECT_EQ(r.fingerprint(), CampaignRunner::run_one(e, exec).fingerprint());
}

TEST(SnapshotCacheTest, ReportCarriesHitMissCounters) {
  const auto experiments = windowed_tree_sweep();
  RunnerOptions options;
  options.threads = 1;
  const CampaignResult result = CampaignRunner(options).run(experiments);
  const report::CampaignReport rep =
      report::build_campaign_report(result, "snapshot-report");
  EXPECT_GT(rep.snapshot_hits + rep.snapshot_misses, 0u);
  const Json j = rep.to_json();
  EXPECT_TRUE(j.contains("snapshot_hits"));
  EXPECT_TRUE(j.contains("snapshot_misses"));
  EXPECT_TRUE(j.contains("prefix_events_skipped"));
  // Campaign-level latency quantiles stream over every kept request.
  EXPECT_GT(rep.latency.count, 0u);
  EXPECT_TRUE(j.contains("latency_p50_us"));
  EXPECT_TRUE(j.contains("latency_p90_us"));
  EXPECT_TRUE(j.contains("latency_p99_us"));
  EXPECT_LE(rep.latency.p50, rep.latency.p99);
}

TEST(SnapshotCacheTest, CustomHandlerWorldsMatchCold) {
  // The redundant app's frontend keeps per-request fan-out state behind a
  // shared_ptr its reply closures capture. A snapshot copies the closures,
  // not that state, so restored siblings used to inherit what an earlier
  // sibling left behind; worlds with a custom handler now skip snapshots.
  const AppSpec app = AppSpec::redundant();
  SweepOptions sweep;
  sweep.load = small_load();
  sweep.windows.push_back({msec(23), msec(50)});
  const auto experiments = generate_sweep(app, app.probe_graph(), sweep);
  for (const bool early_exit : {false, true}) {
    RunnerOptions runner{.threads = 1, .early_exit = early_exit};
    const CampaignResult snap = CampaignRunner(runner).run(experiments);
    runner.warm_worlds = false;
    const CampaignResult cold = CampaignRunner(runner).run(experiments);
    for (size_t i = 0; i < cold.experiments.size(); ++i) {
      const ExperimentResult& x = snap.experiments.at(i);
      EXPECT_EQ(x.fingerprint(), cold.experiments[i].fingerprint());
      EXPECT_EQ(x.verdict_fingerprint(),
                cold.experiments[i].verdict_fingerprint());
    }
  }
}

// --- snapshot hygiene -----------------------------------------------------

TEST(SnapshotHygieneTest, WorldDeepResetsAfterSnapshotRuns) {
  // Drive a miss and a hit through a world, then reset and inspect every
  // piece of state the next experiment could observe.
  const Experiment e = windowed_abort(msec(25), 11);
  WarmWorld world(e.app);
  ExecOptions exec;
  ASSERT_TRUE(world.run(e, exec).ok);   // miss: builds the snapshot
  ASSERT_TRUE(world.run(e, exec).ok);   // hit: restores it

  sim::Simulation* sim = world.simulation();
  ASSERT_NE(sim, nullptr);
  sim->reset(e.seed);

  // Clock, queue, and pool: virtual time zero, nothing pending, every
  // pooled event slot back on the free list (restored events were
  // re-acquired from the pool and must all have drained or been cleared).
  EXPECT_EQ(sim->now(), TimePoint{});
  EXPECT_FALSE(sim->has_pending_events());
  EXPECT_FALSE(sim->stop_requested());
  const sim::EventQueue& queue = sim->event_queue();
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());

  // LogStore empty; per-service state pristine (breakers closed, bulkheads
  // idle, queues empty, no fault rules, no buffered observations).
  EXPECT_EQ(sim->log_store().size(), 0u);
  for (const char* name : {"serviceA", "serviceB", "user"}) {
    sim::SimService* svc = sim->find_service(name);
    ASSERT_NE(svc, nullptr) << name;
    for (size_t i = 0; i < svc->instance_count(); ++i) {
      EXPECT_TRUE(svc->instance(i).pristine()) << name;
      const auto& agent = svc->instance(i).agent();
      EXPECT_EQ(agent->engine().rule_count(), 0u) << name;
      EXPECT_EQ(agent->buffered_records(), 0u) << name;
    }
  }

  // RNG reseeded exactly: the next draw matches a cold Rng(seed).
  EXPECT_EQ(sim->rng().next_u64(), Rng(e.seed).next_u64());

  // And the proof it all worked: reset again (the draw above consumed
  // state), then the next snapshot-path run is byte-identical to cold.
  sim->reset(e.seed);
  EXPECT_EQ(world.run(e, exec).fingerprint(),
            CampaignRunner::run_one(e, exec).fingerprint());
}

// --- seeded fuzz over random snapshot instants ----------------------------

TEST(SnapshotFuzzTest, RandomActivationOffsetsStayByteIdentical) {
  // The snapshot instant is min(after) - 1 tick, so fuzzing the activation
  // offset fuzzes where in the run the world is captured: mid-burst, between
  // responses, after quiescence (offset beyond the load's natural end), and
  // the 1-tick boundary. Every trial must match cold execution byte for
  // byte, through both the build (miss) and restore (hit) paths.
  Rng fuzz(0xf00dfeedULL);
  for (int trial = 0; trial < 10; ++trial) {
    const Duration after = usec(fuzz.uniform(1, 220000));
    const uint64_t seed = 100 + trial % 3;
    const Experiment e = windowed_abort(after, seed);
    for (const bool early_exit : {false, true}) {
      ExecOptions exec;
      exec.early_exit = early_exit;
      const std::string cold = CampaignRunner::run_one(e, exec).fingerprint();

      WarmWorld world(e.app);
      const ExperimentResult miss = world.run(e, exec);
      const ExperimentResult hit = world.run(e, exec);
      if (!early_exit) {
        // Without online checking the tape can never decide mid-prefix, so
        // the snapshot path always engages: build, then restore.
        EXPECT_EQ(miss.snapshot_path, 1) << e.id;
        EXPECT_EQ(hit.snapshot_path, 2) << e.id;
      }
      EXPECT_EQ(miss.fingerprint(), cold) << e.id;
      EXPECT_EQ(hit.fingerprint(), cold) << e.id;
    }
  }
}

TEST(SnapshotFuzzTest, ShrinkingOffsetsRebuildTheSnapshot) {
  // Same cache key, earlier activation: the cached snapshot (taken later
  // than the new activation instant) is unusable, so the cache rebuilds at
  // the earlier instant — and stays byte-identical both ways.
  WarmWorld world(windowed_abort(msec(1)).app);
  ExecOptions exec;
  for (const Duration after : {msec(80), msec(40), msec(5)}) {
    const Experiment e = windowed_abort(after, 77);
    const ExperimentResult r = world.run(e, exec);
    EXPECT_EQ(r.snapshot_path, 1) << "earlier offset must rebuild";
    EXPECT_EQ(r.fingerprint(),
              CampaignRunner::run_one(e, exec).fingerprint());
  }
  EXPECT_EQ(world.snapshots().misses(), 3u);
  // And a revisit of the latest offset is a hit again (the cache converged
  // to the minimum activation).
  const Experiment e = windowed_abort(msec(40), 77);
  const ExperimentResult r = world.run(e, exec);
  EXPECT_EQ(r.snapshot_path, 2);
  EXPECT_EQ(r.fingerprint(), CampaignRunner::run_one(e, exec).fingerprint());
}

}  // namespace
}  // namespace gremlin::campaign
