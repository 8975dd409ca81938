// Warm-world execution tests: the byte-identity contract (a reused,
// deep-reset Simulation produces exactly the results a cold one would),
// reset hygiene (nothing leaks from one experiment into the next), the
// fault-rule compilation cache, and the Symbol-keyed Simulation surface.
// tests/differential_test.cc draws random campaigns and searches across
// every execution mode.
#include <gtest/gtest.h>

#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "campaign/warm_world.h"
#include "common/intern.h"
#include "control/rule_cache.h"
#include "control/translator.h"
#include "search/pruner.h"
#include "sim/simulation.h"

namespace gremlin::campaign {
namespace {

control::LoadOptions small_load() {
  control::LoadOptions load;
  load.count = 30;
  load.gap = msec(5);
  return load;
}

std::vector<Experiment> buggy_tree_sweep(uint64_t seed = 42) {
  const AppSpec app = AppSpec::buggy_tree();
  SweepOptions options;
  options.load = small_load();
  options.seed = seed;
  return generate_sweep(app, app.probe_graph(), options);
}

Experiment quickstart_abort(uint64_t seed = 42) {
  Experiment e;
  e.id = "abort(serviceA->serviceB)";
  e.app = AppSpec::quickstart(3, msec(50));
  e.failures.push_back(
      control::FailureSpec::abort_edge("serviceA", "serviceB"));
  e.client = "user";
  e.target = "serviceA";
  e.load = small_load();
  e.checks.push_back(CheckSpec::max_user_failures(1000));
  e.seed = seed;
  return e;
}

// --- the headline contract: warm == cold, byte for byte -------------------

TEST(WarmColdDifferentialTest, CampaignByteIdenticalAcrossThreadCounts) {
  // The hard invariant of warm-world execution: for every thread count and
  // with early exit on or off, a campaign run on reused simulations is
  // byte-identical — fingerprint() AND verdict_fingerprint() — to one that
  // constructs a fresh simulation per experiment.
  const auto experiments =
      replicate_seeds(buggy_tree_sweep(), {7, 1234567});
  for (const bool early_exit : {true, false}) {
    RunnerOptions cold_options;
    cold_options.threads = 1;
    cold_options.early_exit = early_exit;
    cold_options.warm_worlds = false;
    const CampaignResult cold = CampaignRunner(cold_options).run(experiments);

    for (const int threads : {1, 4, 8}) {
      RunnerOptions warm_options;
      warm_options.threads = threads;
      warm_options.early_exit = early_exit;
      warm_options.warm_worlds = true;
      const CampaignResult warm =
          CampaignRunner(warm_options).run(experiments);
      ASSERT_EQ(warm.experiments.size(), cold.experiments.size());
      EXPECT_EQ(warm.fingerprint(), cold.fingerprint())
          << "threads=" << threads << " early_exit=" << early_exit;
      EXPECT_EQ(warm.verdict_fingerprint(), cold.verdict_fingerprint())
          << "threads=" << threads << " early_exit=" << early_exit;
    }
  }
}

TEST(WarmColdDifferentialTest, WarmWorldRunMatchesRunOnePerExperiment) {
  // Single-world form of the contract: the Nth warm run on one world equals
  // run_one on a fresh simulation, for every N (so reset() restores the
  // exact cold-start state, not just a "mostly clean" one).
  const auto experiments = replicate_seeds(buggy_tree_sweep(), {3, 99});
  WarmWorld world(experiments[0].app);
  ExecOptions exec;
  // Seed replication lists each spec's seeds consecutively; testing pairs
  // exercises both cache misses (new spec) and hits (same spec, new seed).
  for (size_t i = 0; i + 1 < experiments.size(); i += 6) {
    for (const size_t j : {i, i + 1}) {
      const ExperimentResult warm = world.run(experiments[j], exec);
      const ExperimentResult cold =
          CampaignRunner::run_one(experiments[j], exec);
      EXPECT_EQ(warm.fingerprint(), cold.fingerprint()) << experiments[j].id;
      EXPECT_EQ(warm.verdict_fingerprint(), cold.verdict_fingerprint())
          << experiments[j].id;
    }
  }
  EXPECT_GT(world.runs(), 1u);
  // Seed replication repeats every failure spec, so the rule cache must
  // have been exercised, not just populated.
  EXPECT_GT(world.rule_cache().hits(), 0u);
}

TEST(WarmColdDifferentialTest, PrunerBaselineWarmMatchesCold) {
  // The kept-alive baseline world: run_baseline on a WarmWorld must produce
  // the cold baseline's result and the same observed call graph (pruning
  // decisions depend on it edge-for-edge).
  const Experiment e = quickstart_abort();
  const search::Baseline cold = search::run_baseline(e);
  WarmWorld world(e.app);
  const search::Baseline warm = search::run_baseline(e, &world);

  EXPECT_EQ(warm.result.fingerprint(), cold.result.fingerprint());
  EXPECT_EQ(warm.call_graph.edges.size(), cold.call_graph.edges.size());
  EXPECT_EQ(warm.call_graph.paths.size(), cold.call_graph.paths.size());
  for (const auto& edge : cold.call_graph.edges) {
    EXPECT_TRUE(warm.call_graph.observed(edge.first, edge.second))
        << edge.first << "->" << edge.second;
  }
  // The world stayed warm: a subsequent faulted run reuses it and still
  // matches cold execution.
  ExecOptions exec;
  EXPECT_EQ(world.run(e, exec).fingerprint(),
            CampaignRunner::run_one(e, exec).fingerprint());
}

TEST(WarmColdDifferentialTest, WorldPoolHandlesManyDistinctApps) {
  // More distinct AppSpecs than the per-worker world cap: eviction and
  // rebuild must stay invisible in the results.
  std::vector<Experiment> experiments;
  for (int retries = 1; retries <= 6; ++retries) {
    Experiment e = quickstart_abort(100 + retries);
    e.id = "retries=" + std::to_string(retries);
    e.app = AppSpec::quickstart(retries, msec(50));
    experiments.push_back(std::move(e));
    experiments.push_back(experiments.back());  // revisit the same app
  }
  RunnerOptions warm{.threads = 1, .warm_worlds = true};
  RunnerOptions cold{.threads = 1, .warm_worlds = false};
  EXPECT_EQ(CampaignRunner(warm).run(experiments).fingerprint(),
            CampaignRunner(cold).run(experiments).fingerprint());
}

// --- cold fallbacks -------------------------------------------------------

TEST(WarmWorldFallbackTest, CustomExperimentsRunCold) {
  Experiment e;
  e.id = "custom";
  e.app = AppSpec::quickstart(3, msec(50));
  e.custom = [](control::TestSession* session) {
    EXPECT_TRUE(
        session->apply(control::FailureSpec::abort_edge("serviceA", "serviceB"))
            .ok());
    const auto load = session->run_load("user", "serviceA", 20);
    (void)session->collect();
    control::CheckResult saw_load;
    saw_load.name = "SawLoad";
    saw_load.passed = load.total() == 20;
    return std::vector<control::CheckResult>{saw_load};
  };
  WarmWorld world(e.app);
  ExecOptions exec;
  const ExperimentResult warm = world.run(e, exec);
  EXPECT_TRUE(warm.ok);
  EXPECT_EQ(warm.fingerprint(),
            CampaignRunner::run_one(e, exec).fingerprint());
  // The custom hook may mutate the deployment arbitrarily, so it never
  // touches (or builds) the long-lived world.
  EXPECT_EQ(world.simulation(), nullptr);
  EXPECT_EQ(world.runs(), 0u);
}

TEST(WarmWorldFallbackTest, NonReusableSpecsRunCold) {
  Experiment e = quickstart_abort();
  e.app.reusable = false;
  WarmWorld world(e.app);
  ExecOptions exec;
  const ExperimentResult warm = world.run(e, exec);
  EXPECT_EQ(warm.fingerprint(),
            CampaignRunner::run_one(e, exec).fingerprint());
  EXPECT_EQ(world.simulation(), nullptr);
  EXPECT_EQ(world.runs(), 0u);
}

// --- reset hygiene --------------------------------------------------------

TEST(ResetHygieneTest, ResetRestoresColdStartState) {
  // Drive a faulted, early-exiting experiment through a world, then reset
  // and inspect every piece of state the next experiment could observe.
  Experiment e = quickstart_abort();
  WarmWorld world(e.app);
  ExecOptions exec;
  exec.early_exit = true;
  ASSERT_TRUE(world.run(e, exec).ok);

  sim::Simulation* sim = world.simulation();
  ASSERT_NE(sim, nullptr);
  // The run lazily created the edge client as a real service.
  EXPECT_NE(sim->find_service("user"), nullptr);

  sim->reset(e.seed);

  // Clock, queue, and pool: virtual time back to zero, no pending events,
  // every pooled event slot back on the free list.
  EXPECT_EQ(sim->now(), TimePoint{});
  EXPECT_FALSE(sim->has_pending_events());
  EXPECT_FALSE(sim->stop_requested());
  const sim::EventQueue& queue = sim->event_queue();
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());

  // LogStore: empty, with interned service names still resolvable (the
  // symbol table is process-global and survives by design).
  EXPECT_EQ(sim->log_store().size(), 0u);
  EXPECT_TRUE(SymbolTable::global().find("serviceA").has_value());

  // The lazily created edge client survives the reset — rebuilt clients
  // cost ~11 allocations per experiment — and is reset in place below like
  // every baseline service. An idle client is invisible to results (no
  // events, no records, fingerprints carry no symbol ids), so the
  // byte-identity proof at the end still holds against a cold build.
  EXPECT_NE(sim->find_service("user"), nullptr);

  // Per-service state: breakers closed, bulkheads idle, queues empty,
  // counters zero, no fault rules installed, no buffered observations.
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

  // And the proof it all worked: the next run is byte-identical to cold.
  EXPECT_EQ(world.run(e, exec).fingerprint(),
            CampaignRunner::run_one(e, exec).fingerprint());
}

// --- rule-compilation cache -----------------------------------------------

TEST(RuleCacheTest, HitsReplayIdenticalRulesAndAdvanceSequence) {
  const AppSpec app = AppSpec::quickstart(3, msec(50));
  const topology::AppGraph graph = app.probe_graph();
  const control::FailureSpec spec =
      control::FailureSpec::abort_edge("serviceA", "serviceB");

  // A warm world constructs one translator per experiment (sequence starts
  // at 0 each time) but shares the cache across them. Replaying the same
  // spec in a second "experiment" must hit and reproduce exactly the rules
  // an uncached translator would emit.
  control::RecipeTranslator direct(&graph);
  const auto reference = direct.translate(spec);
  ASSERT_TRUE(reference.ok());

  control::RuleCache cache;
  control::RecipeTranslator first_run(&graph);
  const auto miss = cache.translate(first_run, spec);
  control::RecipeTranslator second_run(&graph);
  const auto hit = cache.translate(second_run, spec);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // The hit advanced the sequence exactly as a direct translation would, so
  // rule IDs of any subsequent spec stay byte-identical.
  EXPECT_EQ(second_run.sequence(), direct.sequence());

  ASSERT_EQ(miss.value().size(), reference.value().size());
  ASSERT_EQ(hit.value().size(), reference.value().size());
  for (size_t i = 0; i < reference.value().size(); ++i) {
    EXPECT_EQ(miss.value()[i].id, reference.value()[i].id);
    EXPECT_EQ(hit.value()[i].id, reference.value()[i].id);
  }
}

TEST(RuleCacheTest, DistinctSpecsAndPositionsMiss) {
  const AppSpec app = AppSpec::quickstart(3, msec(50));
  const topology::AppGraph graph = app.probe_graph();
  control::RecipeTranslator tr(&graph);
  control::RuleCache cache;
  ASSERT_TRUE(
      cache.translate(tr, control::FailureSpec::abort_edge("serviceA",
                                                           "serviceB"))
          .ok());
  ASSERT_TRUE(
      cache.translate(tr, control::FailureSpec::crash("serviceB"))
          .ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RuleCacheTest, FingerprintSeparatesSpecs) {
  // The cache key starts from FailureSpec::fingerprint(): specs that differ
  // in any field must not collide.
  const auto a = control::FailureSpec::abort_edge("x", "y");
  auto b = a;
  b.error = a.error + 1;
  auto c = a;
  c.probability = 0.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a.fingerprint(), control::FailureSpec::abort_edge("x", "y")
                                 .fingerprint());
}

// --- Symbol-keyed Simulation surface --------------------------------------

TEST(SymbolLookupTest, SymbolAndStringLookupsAgree) {
  sim::Simulation sim;
  sim::ServiceConfig cfg;
  cfg.name = "alpha";
  cfg.instances = 2;
  sim::SimService* added = sim.add_service(std::move(cfg));

  const Symbol alpha("alpha");
  EXPECT_EQ(sim.find_service(alpha), added);
  EXPECT_EQ(sim.find_service("alpha"), added);
  EXPECT_EQ(sim.find_service(std::string("alpha")), added);
  EXPECT_EQ(added->symbol(), alpha);

  // Unknown names: neither form finds anything, and the string form must
  // not intern (lookups never grow the global table).
  EXPECT_EQ(sim.find_service("warm-world-unknown-name"), nullptr);
  EXPECT_FALSE(SymbolTable::global().find("warm-world-unknown-name")
                   .has_value());
  EXPECT_EQ(sim.find_service(Symbol("beta-not-registered")), nullptr);

  // pick_instance: both forms walk the same round-robin cursor.
  sim::ServiceInstance* first = sim.pick_instance(alpha);
  sim::ServiceInstance* second = sim.pick_instance("alpha");
  EXPECT_NE(first, nullptr);
  EXPECT_NE(second, nullptr);
  EXPECT_NE(first, second);  // 2 instances, consecutive picks alternate
  EXPECT_EQ(sim.pick_instance(alpha), first);
}

}  // namespace
}  // namespace gremlin::campaign
