// Campaign engine tests: the determinism contract (thread count never
// changes results), the scheduler's edge cases, experiment isolation (same
// seed + same spec = same behaviour whether an experiment runs alone or
// inside a shared campaign), load-target resolution, sweep generation,
// seed replication, and recipe lowering. tests/differential_test.cc draws
// random campaigns across every execution mode.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/process_pool.h"
#include "campaign/runner.h"
#include "dsl/lowering.h"
#include "dsl/parser.h"
#include "report/campaign_report.h"

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

TEST(SweepTest, EnumeratesEdgesAndServices) {
  const AppSpec app = AppSpec::buggy_tree();
  const topology::AppGraph graph = app.probe_graph();
  // Depth-3 binary tree: 7 services + user, 6 tree edges + user->svc0.
  ASSERT_EQ(graph.edge_count(), 7u);

  const auto experiments = buggy_tree_sweep();
  // Load target resolves to svc0 (the front door "user" calls), which is
  // excluded from faults along with "user" itself:
  //   edge kinds (abort, delay, disconnect): 6 edges not entering svc0/user
  //   service kinds (overload, crash): 6 services (all but svc0 and user)
  EXPECT_EQ(experiments.size(), 3u * 6u + 2u * 6u);
  for (const auto& e : experiments) {
    EXPECT_EQ(e.target, "svc0");
    EXPECT_EQ(e.client, "user");
    ASSERT_EQ(e.checks.size(), 1u);
    EXPECT_EQ(e.checks[0].kind, CheckSpec::Kind::kMaxUserFailures);
    ASSERT_EQ(e.failures.size(), 1u);
    EXPECT_FALSE(e.id.empty());
  }
}

TEST(SweepTest, FindsThePlantedBug) {
  // The buggy tree has exactly one latent bug: svc0 handles a failing svc2
  // with neither timeout nor fallback. The systematic sweep must flag
  // experiments that touch svc2 and pass everything else.
  const auto experiments = buggy_tree_sweep();
  const CampaignRunner runner(RunnerOptions{.threads = 1});
  const CampaignResult result = runner.run(experiments);

  ASSERT_EQ(result.experiments.size(), experiments.size());
  EXPECT_EQ(result.errors(), 0u);
  EXPECT_GT(result.failed(), 0u);
  for (const auto& r : result.experiments) {
    const bool touches_bug = r.id.find("svc2") != std::string::npos;
    if (!touches_bug) {
      EXPECT_TRUE(r.passed()) << r.id << " should pass but failed";
    }
  }
  // The direct hit on the unprotected edge must surface the bug.
  for (const auto& r : result.experiments) {
    if (r.id == "abort(svc0->svc2)" || r.id == "crash(svc2)") {
      EXPECT_FALSE(r.passed()) << r.id << " should expose the missing "
                                  "fallback";
    }
  }
}

TEST(SweepTest, ReplicateSeedsClonesWithNewSeeds) {
  auto base = buggy_tree_sweep();
  base.resize(2);
  const auto replicated = replicate_seeds(base, {1, 2, 3});
  ASSERT_EQ(replicated.size(), 6u);
  EXPECT_EQ(replicated[0].seed, 1u);
  EXPECT_EQ(replicated[2].seed, 3u);
  EXPECT_NE(replicated[0].id.find(" seed=1"), std::string::npos);
  EXPECT_EQ(replicated[0].id.substr(0, base[0].id.size()), base[0].id);
}

TEST(RunnerTest, ThreadCountNeverChangesResults) {
  // The headline determinism contract: a parallel campaign is byte-identical
  // to a sequential one. Fingerprints cover check verdicts, counters, and
  // every per-request latency/status value.
  const auto experiments =
      replicate_seeds(buggy_tree_sweep(), {7, 1234567});
  const CampaignResult sequential =
      CampaignRunner(RunnerOptions{.threads = 1}).run(experiments);
  const CampaignResult parallel =
      CampaignRunner(RunnerOptions{.threads = 8}).run(experiments);

  ASSERT_EQ(sequential.experiments.size(), parallel.experiments.size());
  EXPECT_EQ(sequential.fingerprint(), parallel.fingerprint());
  EXPECT_EQ(parallel.threads, 8);
}

TEST(RunnerTest, ReportsAreByteIdenticalAcrossOneFourEightThreads) {
  // Regression guard for the determinism contract at the report layer: the
  // same campaign at 1, 4, and 8 workers must produce byte-identical result
  // fingerprints AND byte-identical rendered experiment rows. Only fields
  // that record the execution itself (thread count, wall clock) may differ.
  const auto experiments = replicate_seeds(buggy_tree_sweep(), {3, 99});
  std::vector<std::string> fingerprints;
  std::vector<std::string> rendered_rows;
  for (const int threads : {1, 4, 8}) {
    const CampaignResult result =
        CampaignRunner(RunnerOptions{.threads = threads}).run(experiments);
    fingerprints.push_back(result.fingerprint());
    const report::CampaignReport rep =
        report::build_campaign_report(result, "determinism");
    rendered_rows.push_back(rep.to_json()["experiments"].dump(2));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_EQ(rendered_rows[0], rendered_rows[1]);
  EXPECT_EQ(rendered_rows[0], rendered_rows[2]);
}

// Runs `experiments` at `threads` and counts on_result calls per id.
CampaignResult run_counting(const std::vector<Experiment>& experiments,
                            int threads, std::map<std::string, int>* seen) {
  RunnerOptions options;
  options.threads = threads;
  options.on_result = [seen](const ExperimentResult& r) { ++(*seen)[r.id]; };
  return CampaignRunner(options).run(experiments);
}

// The scheduler contract at its edges: any batch size at any thread count
// is byte-identical to threads=1, and reports every experiment exactly once.
void expect_scheduled_like_sequential(
    const std::vector<Experiment>& experiments, int threads) {
  std::map<std::string, int> seen_sequential;
  std::map<std::string, int> seen;
  const CampaignResult sequential =
      run_counting(experiments, 1, &seen_sequential);
  const CampaignResult parallel = run_counting(experiments, threads, &seen);

  ASSERT_EQ(parallel.experiments.size(), experiments.size());
  EXPECT_EQ(sequential.fingerprint(), parallel.fingerprint());
  EXPECT_EQ(sequential.verdict_fingerprint(), parallel.verdict_fingerprint());
  EXPECT_EQ(seen, seen_sequential);
  EXPECT_EQ(seen.size(), experiments.size());
  for (const auto& e : experiments) {
    EXPECT_EQ(seen[e.id], 1) << e.id;
  }
}

TEST(SchedulerTest, EmptyBatch) {
  expect_scheduled_like_sequential({}, 8);
}

TEST(SchedulerTest, FewerExperimentsThanThreads) {
  auto experiments = buggy_tree_sweep();
  experiments.resize(3);
  expect_scheduled_like_sequential(experiments, 8);
}

TEST(SchedulerTest, BatchSizeNotDividingTheChunkRule) {
  // 201 experiments over 3 workers: chunks of 201 / 12 = 16 shrinking to
  // single experiments, with a remainder at every step.
  auto experiments = replicate_seeds(buggy_tree_sweep(), {1, 2, 3, 4, 5, 6, 7});
  ASSERT_GE(experiments.size(), 201u);
  experiments.resize(201);
  expect_scheduled_like_sequential(experiments, 3);
}

TEST(SchedulerTest, ChunksShrinkTowardsTheTail) {
  std::atomic<uint64_t> cursor{0};
  std::vector<IndexRange> leases;
  IndexRange lease;
  while (claim_chunk(&cursor, 201, 3, &lease)) leases.push_back(lease);
  ASSERT_FALSE(leases.empty());
  EXPECT_EQ(leases.front().begin, 0u);
  EXPECT_EQ(leases.front().end, 16u);  // 201 / (3 workers * 4)
  EXPECT_EQ(leases.back().end, 201u);
  EXPECT_EQ(leases.back().end - leases.back().begin, 1u);
  for (size_t i = 1; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].begin, leases[i - 1].end);  // contiguous, no gaps
  }
  EXPECT_FALSE(claim_chunk(&cursor, 201, 3, &lease));

  // Never more than 64 at once, however large the batch.
  std::atomic<uint64_t> big{0};
  ASSERT_TRUE(claim_chunk(&big, 1000000, 1, &lease));
  EXPECT_EQ(lease.end - lease.begin, 64u);
}

TEST(RunnerTest, ExperimentsAreIsolated) {
  // Same seed, different failure spec: each experiment gets its own private
  // simulation + RNG, so running an experiment inside a big shared campaign
  // gives exactly the result of running it alone.
  const auto experiments = buggy_tree_sweep();
  const CampaignResult batch =
      CampaignRunner(RunnerOptions{.threads = 4}).run(experiments);
  for (size_t i = 0; i < experiments.size(); i += 7) {
    const ExperimentResult alone = CampaignRunner::run_one(experiments[i]);
    EXPECT_EQ(alone.fingerprint(), batch.experiments[i].fingerprint())
        << experiments[i].id;
  }
}

TEST(RunnerTest, ResultsKeepInputOrder) {
  const auto experiments = buggy_tree_sweep();
  const CampaignResult result =
      CampaignRunner(RunnerOptions{.threads = 8}).run(experiments);
  ASSERT_EQ(result.experiments.size(), experiments.size());
  for (size_t i = 0; i < experiments.size(); ++i) {
    EXPECT_EQ(result.experiments[i].id, experiments[i].id);
  }
}

TEST(RunnerTest, OnResultHookSeesEveryExperiment) {
  const auto experiments = buggy_tree_sweep();
  std::vector<std::string> seen;
  RunnerOptions options;
  options.threads = 4;
  options.on_result = [&seen](const ExperimentResult& r) {
    seen.push_back(r.id);
  };
  CampaignRunner(options).run(experiments);
  EXPECT_EQ(seen.size(), experiments.size());
}

TEST(RunnerTest, DropLatenciesShrinksFingerprintOnly) {
  const auto experiments = buggy_tree_sweep();
  const ExperimentResult full =
      CampaignRunner::run_one(experiments[0], ExecOptions{});
  const ExperimentResult lean = CampaignRunner::run_one(
      experiments[0], ExecOptions{.keep_latencies = false});
  EXPECT_EQ(full.requests, lean.requests);
  EXPECT_EQ(full.failures, lean.failures);
  EXPECT_FALSE(full.latencies.empty());
  EXPECT_TRUE(lean.latencies.empty());
}

TEST(RunnerTest, CustomHookRunsImperativeScenarios) {
  Experiment e;
  e.id = "custom";
  e.app = AppSpec::quickstart(3, msec(50));
  e.custom = [](control::TestSession* session) {
    EXPECT_TRUE(
        session->apply(control::FailureSpec::abort_edge("serviceA", "serviceB"))
            .ok());
    const auto load = session->run_load("user", "serviceA", 40);
    (void)session->collect();
    std::vector<control::CheckResult> checks;
    checks.push_back(
        session->checker().has_bounded_retries("serviceA", "serviceB", 5));
    control::CheckResult saw_load;
    saw_load.name = "SawLoad";
    saw_load.passed = load.total() == 40;
    checks.push_back(saw_load);
    return checks;
  };
  const ExperimentResult result = CampaignRunner::run_one(e);
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.checks.size(), 2u);
  EXPECT_TRUE(result.checks[1].passed);
}

TEST(RunnerTest, BadFailureSpecReportsErrorNotCrash) {
  Experiment e;
  e.id = "bad";
  e.app = AppSpec::quickstart(1, msec(50));
  e.failures.push_back(
      control::FailureSpec::abort_edge("nosuch", "neither"));
  e.load = small_load();
  const ExperimentResult result = CampaignRunner::run_one(e);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_FALSE(result.passed());
}

TEST(ReportTest, CampaignReportAggregates) {
  const auto experiments = buggy_tree_sweep();
  const CampaignResult result =
      CampaignRunner(RunnerOptions{.threads = 2}).run(experiments);
  const report::CampaignReport rep =
      report::build_campaign_report(result, "buggy-tree sweep");
  EXPECT_EQ(rep.total, experiments.size());
  EXPECT_EQ(rep.passed + rep.failed + rep.errors, rep.total);
  EXPECT_GT(rep.failed, 0u);
  EXPECT_FALSE(rep.all_passed());

  const std::string md = rep.to_markdown();
  EXPECT_NE(md.find("Failing experiments"), std::string::npos);
  const Json j = rep.to_json();
  EXPECT_TRUE(j.is_object());
}

TEST(LoadTargetTest, ExplicitTargetWins) {
  topology::AppGraph graph;
  graph.add_edge("user", "front");
  EXPECT_EQ(load_target(graph, "user", "elsewhere"), "elsewhere");
}

TEST(LoadTargetTest, SkipsExcludedAndClientEntryPoints) {
  // Entry points, sorted: "admin", "batch", "user". The client and the
  // excluded "admin" are skipped; "batch" is the first that remains.
  topology::AppGraph graph;
  graph.add_edge("admin", "db");
  graph.add_edge("batch", "db");
  graph.add_edge("user", "front");
  EXPECT_EQ(load_target(graph, "user", "", {"admin"}), "batch");
  EXPECT_EQ(load_target(graph, "user", ""), "admin");
  EXPECT_EQ(load_target(graph, "admin", "", {"batch"}), "user");
}

TEST(LoadTargetTest, FallsBackToTheClientsCallee) {
  // The client is the only root: load the front door it calls.
  topology::AppGraph graph;
  graph.add_edge("user", "front");
  graph.add_edge("front", "db");
  EXPECT_EQ(load_target(graph, "user", ""), "front");
  EXPECT_EQ(load_target(graph, "user", "", {"user"}), "front");
}

TEST(LoadTargetTest, EmptyWhenTheGraphHasNone) {
  // A cycle has no entry points, and the client calls nothing.
  topology::AppGraph graph;
  graph.add_edge("a", "b");
  graph.add_edge("b", "a");
  EXPECT_EQ(load_target(graph, "user", ""), "");
  EXPECT_EQ(load_target(topology::AppGraph{}, "user", ""), "");
}

TEST(LoadTargetTest, SnapshotEligibleExperimentReportsTheMissingTarget) {
  // Same experiment twice on a graph with no load target: once with an
  // immediate fault (the plain warm path), once with the fault at 100 ms
  // (eligible for a prefix snapshot). Both report the same error.
  topology::AppGraph graph;
  graph.add_edge("a", "b");
  graph.add_edge("b", "a");
  Experiment immediate;
  immediate.id = "no-target";
  immediate.app = AppSpec::from_graph(graph);
  immediate.failures.push_back(control::FailureSpec::abort_edge("a", "b"));
  immediate.load = small_load();
  immediate.checks.push_back(CheckSpec::max_user_failures(0));
  Experiment delayed = immediate;
  delayed.failures[0].after = msec(100);

  RunnerOptions options;  // warm worlds and snapshots on, as by default
  options.threads = 1;
  ASSERT_TRUE(options.warm_worlds);
  ASSERT_TRUE(options.use_snapshots);
  const CampaignResult result =
      CampaignRunner(options).run({immediate, delayed});
  ASSERT_EQ(result.experiments.size(), 2u);
  for (const ExperimentResult& r : result.experiments) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "no load target: graph has no entry point");
  }
  EXPECT_EQ(result.experiments[0].fingerprint(),
            result.experiments[1].fingerprint());
}

TEST(LoweringTest, RecipeScenariosBecomeExperiments) {
  const char* source = R"(
graph {
  user -> serviceA
  serviceA -> serviceB
}

scenario "b aborts" {
  abort(serviceA, serviceB, error=503)
  load(user, serviceA, count=50)
  has_bounded_retries(serviceA, serviceB, max_tries=5)
  max_user_failures(0)
}
)";
  auto file = dsl::parse(source);
  ASSERT_TRUE(file.ok()) << file.error().message;
  auto lowered = dsl::lower_recipe(
      file.value(), AppSpec::from_graph(file.value().graph), 7);
  ASSERT_TRUE(lowered.ok()) << lowered.error().message;
  ASSERT_EQ(lowered.value().size(), 1u);

  const Experiment& e = lowered.value()[0];
  EXPECT_EQ(e.id, "b aborts");
  EXPECT_EQ(e.seed, 7u);
  ASSERT_EQ(e.failures.size(), 1u);
  EXPECT_EQ(e.load.count, 50u);
  ASSERT_EQ(e.checks.size(), 2u);

  const ExperimentResult result = CampaignRunner::run_one(e);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.requests, 50u);
}

TEST(LoweringTest, ImperativeScenariosAreRejected) {
  const char* preamble = R"(
graph { user -> serviceA }
)";
  for (const char* body : {
           "scenario \"req\" { load(user, serviceA) require "
           "max_user_failures(0) }",
           "scenario \"late\" { load(user, serviceA) abort(user, serviceA) }",
           "scenario \"twice\" { load(user, serviceA) load(user, serviceA) }",
           "scenario \"imp\" { clear }",
       }) {
    auto file = dsl::parse(std::string(preamble) + body);
    ASSERT_TRUE(file.ok()) << file.error().message;
    auto lowered = dsl::lower_recipe(
        file.value(), AppSpec::from_graph(file.value().graph), 1);
    EXPECT_FALSE(lowered.ok()) << body;
    EXPECT_NE(lowered.error().message.find("gremlin run"),
              std::string::npos);
  }
}

TEST(AppSpecTest, FromGraphMatchesInterpreterAutocreate) {
  topology::AppGraph graph;
  graph.add_edge("user", "a");
  graph.add_edge("a", "b");
  const AppSpec spec = AppSpec::from_graph(graph);

  sim::Simulation sim;
  const topology::AppGraph built = spec.instantiate(&sim);
  EXPECT_EQ(built.edge_count(), 2u);
  EXPECT_NE(sim.find_service("user"), nullptr);
  EXPECT_NE(sim.find_service("a"), nullptr);
  EXPECT_NE(sim.find_service("b"), nullptr);
}

// What instantiate() built: the returned graph's services and edges, and
// each deployed service's dependencies and processing time.
std::string built_app(const AppSpec& spec) {
  sim::Simulation sim;
  const topology::AppGraph graph = spec.instantiate(&sim);
  std::string out;
  for (const auto& edge : graph.edges()) out += edge.src + ">" + edge.dst + ";";
  out += "|";
  for (const auto& name : graph.services()) {
    const sim::SimService* service = sim.find_service(name);
    if (service == nullptr) return out + "missing " + name;
    out += name + ":" +
           std::to_string(service->config().processing_time.count()) + ":";
    for (const auto& dep : service->config().dependencies) out += dep + ",";
    out += ";";
  }
  return out + "|" + std::to_string(sim.service_count());
}

AppSpec from_graph_with_make() {
  topology::AppGraph graph;
  graph.add_edge("user", "front");
  graph.add_edge("front", "db");
  graph.add_edge("front", "cache");
  return AppSpec::from_graph(graph, [](const std::string& name) {
    sim::ServiceConfig cfg;
    cfg.processing_time = msec(name == "db" ? 7 : 2);
    return cfg;
  });
}

TEST(AppSpecTest, CopiesInstantiateTheSameApp) {
  const std::vector<AppSpec> specs = {AppSpec::named("mega:4x8").value(),
                                      from_graph_with_make()};
  for (const AppSpec& original : specs) {
    SCOPED_TRACE(original.name);
    const std::string expected = built_app(original);
    const AppSpec copy = original;
    Experiment holder;
    holder.app = original;
    const Experiment holder_copy = holder;
    EXPECT_EQ(copy.identity(), original.identity());
    EXPECT_EQ(holder_copy.app.identity(), original.identity());
    EXPECT_EQ(built_app(copy), expected);
    EXPECT_EQ(built_app(holder_copy.app), expected);
    // Building twice from one spec gives the same app again: the shared
    // state is only read.
    EXPECT_EQ(built_app(original), expected);
  }
  // The make hook ran per service: db differs from the rest.
  EXPECT_NE(built_app(from_graph_with_make()).find("db:7"), std::string::npos);
}

TEST(AppSpecTest, ConcurrentInstantiateOfCopies) {
  for (const AppSpec& spec :
       {AppSpec::named("mega:4x8").value(), from_graph_with_make()}) {
    SCOPED_TRACE(spec.name);
    const std::string expected = built_app(spec);
    std::vector<std::string> built(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < built.size(); ++t) {
      threads.emplace_back([&spec, &built, t] {
        const AppSpec copy = spec;
        built[t] = built_app(copy);
      });
    }
    for (auto& thread : threads) thread.join();
    for (const std::string& b : built) EXPECT_EQ(b, expected);
  }
}

}  // namespace
}  // namespace gremlin::campaign
