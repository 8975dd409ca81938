// Online assertion checking tests (control/online.h).
//
// The centerpiece is a differential fuzz over randomized record streams.
// For every check it compares three columns: the post-hoc reference
// implementation (tests/posthoc_reference.h, which shares no evaluation
// code with the machines and stays the oracle), the AssertionChecker method
// (the machine fed its query() over a LogStore), and the machine fed the
// full stream. They must agree on verdict, name and detail, and an early
// verdict must equal the full-stream one. The fuzz draws from
// --gtest_random_seed when it is non-zero, else from a fixed seed.
//
// Also covered: IncrementalCombine vs Combine::evaluate, sticky early
// verdicts, early-exit vs full-run experiment
// equivalence (verdict fingerprints and failure signatures), the engine's
// verdicts against the oracle over a preserved log, and event-pool
// reclamation after an early-terminated run. tests/differential_test.cc
// draws random campaigns with early exit on and off.
#include "control/online.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "control/assertions.h"
#include "control/checker.h"
#include "logstore/store.h"
#include "posthoc_reference.h"
#include "sim/simulation.h"
#include "topology/graph.h"

namespace gremlin {
namespace {

using campaign::AppSpec;
using campaign::CampaignRunner;
using campaign::CheckSpec;
using campaign::ExecOptions;
using campaign::Experiment;
using campaign::ExperimentResult;
using control::CheckResult;
using control::IncrementalCheck;
using control::LoadSummary;
using control::Verdict;
using logstore::FaultKind;
using logstore::LogRecord;
using logstore::MessageKind;
using logstore::RecordList;

// --- random record streams ---------------------------------------------------

// A plausible-but-adversarial observation stream: mixed edges, requests and
// replies (including orphans), failure statuses, connection resets,
// Gremlin-synthesized aborts, injected delays, timestamp ties, and two
// request-ID families so "test-*" globs filter a real subset.
RecordList random_stream(std::mt19937_64& rng) {
  const char* services[] = {"a", "b", "c", "d"};
  std::uniform_int_distribution<int> count_dist(5, 60);
  std::uniform_int_distribution<int64_t> gap_dist(0, 30000);  // us; ties ok
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> dst_dist(1, 3);
  std::uniform_int_distribution<int> any_dist(0, 3);
  std::uniform_int_distribution<int> id_dist(0, 7);
  std::uniform_int_distribution<int64_t> lat_dist(0, 200000);
  std::uniform_int_distribution<int64_t> delay_dist(0, 50000);

  const int n = count_dist(rng);
  RecordList out;
  out.reserve(static_cast<size_t>(n));
  int64_t ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap_dist(rng);
    LogRecord r;
    r.timestamp = TimePoint{usec(ts)};
    if (pct(rng) < 75) {
      r.src = "a";
      r.dst = services[dst_dist(rng)];
    } else {
      r.src = services[any_dist(rng)];
      do {
        r.dst = services[any_dist(rng)];
      } while (r.dst == r.src);
    }
    r.instance = std::string(r.src.view()) + "-0";
    r.request_id = (pct(rng) < 70 ? "test-" : "other-") +
                   std::to_string(id_dist(rng));
    r.kind = pct(rng) < 55 ? MessageKind::kRequest : MessageKind::kResponse;
    r.method = "GET";
    r.uri = "/";
    if (r.kind == MessageKind::kResponse) {
      const int roll = pct(rng);
      r.status = roll < 55 ? 200 : (roll < 70 ? 500 : (roll < 90 ? 503 : 0));
      r.latency = usec(lat_dist(rng));
    }
    const int fault_roll = pct(rng);
    if (fault_roll < 12) {
      r.fault = FaultKind::kAbort;
      r.rule_id = "rule-abort";
    } else if (fault_roll < 24) {
      r.fault = FaultKind::kDelay;
      r.rule_id = "rule-delay";
      r.injected_delay = usec(delay_dist(rng));
    }
    out.push_back(std::move(r));
  }
  return out;
}

topology::AppGraph fuzz_graph() {
  topology::AppGraph graph;
  graph.add_edge("a", "b");
  graph.add_edge("a", "c");
  graph.add_edge("a", "d");
  return graph;
}

// --- the differential fuzz ---------------------------------------------------

// The fuzz seed: --gtest_random_seed when non-zero, else `fixed`.
uint64_t fuzz_seed(uint64_t fixed) {
  const int32_t flag = ::testing::GTEST_FLAG(random_seed);
  return flag != 0 ? static_cast<uint64_t>(flag) : fixed;
}

// One check of the panel: the oracle's result, the AssertionChecker's, and
// the machine that is fed the full stream.
struct Columns {
  CheckResult oracle;
  CheckResult checker;
  std::unique_ptr<IncrementalCheck> machine;
};

void expect_same_result(const CheckResult& got, const CheckResult& oracle,
                        const char* column, int iter) {
  ASSERT_EQ(got.passed, oracle.passed)
      << "iter " << iter << " check " << oracle.name << " (" << column
      << ")\n  oracle: " << oracle.detail << "\n  got:    " << got.detail;
  ASSERT_EQ(got.name, oracle.name) << "iter " << iter << " (" << column << ")";
  ASSERT_EQ(got.detail, oracle.detail)
      << "iter " << iter << " check " << oracle.name << " (" << column << ")";
}

TEST(OnlineDifferentialFuzz, MatchesPostHocCheckerOn1000RandomStreams) {
  const topology::AppGraph graph = fuzz_graph();
  const uint64_t seed = fuzz_seed(0x6e71a2d5u);
  std::mt19937_64 rng(seed);  // seeded: failures replay exactly

  for (int iter = 0; iter < 1000; ++iter) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const RecordList records = random_stream(rng);
    logstore::LogStore store;
    for (const auto& r : records) store.append(r);
    const reference::PostHocChecker oracle(&store, &graph);
    const control::AssertionChecker checker(&store, &graph);

    // Randomized parameters, used identically by all three columns.
    std::uniform_int_distribution<int> pct(0, 99);
    const std::string idp = pct(rng) < 50 ? "*" : "test-*";
    const char* to_services[] = {"b", "c", "d"};
    const std::string svc =
        to_services[std::uniform_int_distribution<int>(0, 2)(rng)];
    const Duration bound = usec(
        std::uniform_int_distribution<int64_t>(1000, 150000)(rng));
    const int max_tries = std::uniform_int_distribution<int>(0, 3)(rng);
    const int cb_threshold = std::uniform_int_distribution<int>(1, 3)(rng);
    const Duration tdelta = usec(
        std::uniform_int_distribution<int64_t>(1000, 120000)(rng));
    const int success_threshold =
        std::uniform_int_distribution<int>(1, 2)(rng);
    const size_t win_threshold =
        static_cast<size_t>(std::uniform_int_distribution<int>(1, 3)(rng));
    const size_t win_max =
        static_cast<size_t>(std::uniform_int_distribution<int>(0, 4)(rng));
    const double min_rate =
        std::uniform_real_distribution<double>(0.0, 50.0)(rng);
    const double percentile = std::uniform_int_distribution<int>(0, 1)(rng)
                                  ? 99.0
                                  : 50.0;
    const bool with_rule = pct(rng) < 50;
    const double max_fraction =
        std::uniform_real_distribution<double>(0.0, 0.6)(rng);
    const std::string origin =
        to_services[std::uniform_int_distribution<int>(0, 2)(rng)];

    std::vector<Columns> panel;
    panel.push_back({oracle.has_timeouts(svc, bound, idp),
                     checker.has_timeouts(svc, bound, idp),
                     control::make_incremental_timeouts(svc, bound, idp)});
    panel.push_back(
        {oracle.has_bounded_retries("a", "b", max_tries, idp),
         checker.has_bounded_retries("a", "b", max_tries, idp),
         control::make_incremental_bounded_retries("a", "b", max_tries,
                                                   idp)});
    panel.push_back(
        {oracle.has_bounded_retries_windowed("a", "b", 503, win_threshold,
                                             tdelta, win_max, idp),
         checker.has_bounded_retries_windowed("a", "b", 503, win_threshold,
                                              tdelta, win_max, idp),
         control::make_incremental_bounded_retries_windowed(
             "a", "b", 503, win_threshold, tdelta, win_max, idp)});
    panel.push_back(
        {oracle.has_circuit_breaker("a", "b", cb_threshold, tdelta,
                                    success_threshold, idp),
         checker.has_circuit_breaker("a", "b", cb_threshold, tdelta,
                                     success_threshold, idp),
         control::make_incremental_circuit_breaker(
             "a", "b", cb_threshold, tdelta, success_threshold, idp)});
    panel.push_back(
        {oracle.has_bulkhead("a", "b", min_rate, idp),
         checker.has_bulkhead("a", "b", min_rate, idp),
         control::make_incremental_bulkhead(&graph, "a", "b", min_rate,
                                            idp)});
    panel.push_back(
        {oracle.has_latency_slo("a", "b", percentile, bound, with_rule, idp),
         checker.has_latency_slo("a", "b", percentile, bound, with_rule, idp),
         control::make_incremental_latency_slo("a", "b", percentile, bound,
                                               with_rule, idp)});
    panel.push_back(
        {oracle.error_rate_below("a", "b", max_fraction, idp),
         checker.error_rate_below("a", "b", max_fraction, idp),
         control::make_incremental_error_rate("a", "b", max_fraction, idp)});
    panel.push_back(
        {oracle.failure_contained(origin, idp),
         checker.failure_contained(origin, idp),
         control::make_incremental_failure_contained(origin, idp)});

    // Feed the exact stream the post-hoc queries visit (the store sorts by
    // (timestamp, arrival); the generator appends in that order already),
    // recording the first verdict each machine commits to.
    std::vector<Verdict> early(panel.size(), Verdict::kUndecided);
    for (const auto& r : records) {
      for (size_t i = 0; i < panel.size(); ++i) {
        panel[i].machine->offer(r);
        if (early[i] == Verdict::kUndecided) {
          early[i] = panel[i].machine->verdict();
        }
      }
    }

    for (const Columns& c : panel) {
      expect_same_result(c.checker, c.oracle, "AssertionChecker", iter);
      expect_same_result(c.machine->finalize(LoadSummary{}), c.oracle,
                         "machine", iter);
      if (HasFatalFailure()) return;
    }
    for (size_t i = 0; i < panel.size(); ++i) {
      // Stickiness: a verdict committed mid-stream must equal the verdict
      // over the complete stream — the early-exit soundness condition.
      if (early[i] != Verdict::kUndecided) {
        ASSERT_EQ(early[i] == Verdict::kPass, panel[i].oracle.passed)
            << "iter " << iter << " check " << panel[i].oracle.name
            << " decided early then flipped";
      }
    }
  }
}

TEST(IncrementalCombineFuzz, MatchesCombineEvaluateOn1000RandomChains) {
  const uint64_t seed = fuzz_seed(0x51c0ffeeu);
  std::mt19937_64 rng(seed);
  for (int iter = 0; iter < 1000; ++iter) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const RecordList records = random_stream(rng);

    const int steps = std::uniform_int_distribution<int>(1, 4)(rng);
    control::Combine oracle;
    control::IncrementalCombine subject;
    for (int s = 0; s < steps; ++s) {
      const int kind = std::uniform_int_distribution<int>(0, 3)(rng);
      const int status =
          (std::uniform_int_distribution<int>(0, 2)(rng) == 0) ? 0 : 503;
      const size_t num =
          static_cast<size_t>(std::uniform_int_distribution<int>(0, 4)(rng));
      const Duration tdelta = usec(
          std::uniform_int_distribution<int64_t>(1000, 120000)(rng));
      const bool with_rule = std::uniform_int_distribution<int>(0, 1)(rng);
      switch (kind) {
        case 0:
          oracle.then(control::Combine::check_status(status, num, with_rule));
          subject.check_status(status, num, with_rule);
          break;
        case 1:
          oracle.then(
              control::Combine::at_most_requests(tdelta, with_rule, num));
          subject.at_most_requests(tdelta, with_rule, num);
          break;
        case 2:
          oracle.then(control::Combine::no_requests_for(tdelta));
          subject.no_requests_for(tdelta);
          break;
        default:
          oracle.then(
              control::Combine::at_least_requests(tdelta, with_rule, num));
          subject.at_least_requests(tdelta, with_rule, num);
          break;
      }
    }

    Verdict early = Verdict::kUndecided;
    for (const auto& r : records) {
      subject.feed(r);
      if (early == Verdict::kUndecided) early = subject.verdict();
    }
    const bool expected = oracle.evaluate(records);
    const bool got = subject.finish();
    ASSERT_EQ(got, expected) << "iter " << iter << " (" << records.size()
                             << " records, " << steps << " steps)";
    if (early != Verdict::kUndecided) {
      ASSERT_EQ(early == Verdict::kPass, expected)
          << "iter " << iter << " decided early then flipped";
    }
  }
}

// --- failure signatures (shrinker / reproducer identity) ---------------------

TEST(FailureSignatureTest, SortsAndDedupsFailedCheckNames) {
  std::vector<CheckResult> results;
  CheckResult r;
  r.name = "HasTimeouts(b)";
  r.passed = false;
  results.push_back(r);
  r.name = "MaxUserFailures(0)";
  results.push_back(r);
  r.name = "HasTimeouts(b)";  // duplicate, dedups
  results.push_back(r);
  r.name = "ZPassed";
  r.passed = true;  // passed checks never contribute
  results.push_back(r);
  // Pinned bytes: sorted, deduplicated, " + "-joined — independent of check
  // order and of how much of a truncated run's log survived.
  EXPECT_EQ(control::failure_signature(results),
            "HasTimeouts(b) + MaxUserFailures(0)");
  std::reverse(results.begin(), results.end());
  EXPECT_EQ(control::failure_signature(results),
            "HasTimeouts(b) + MaxUserFailures(0)");
}

// --- experiment-level early exit ---------------------------------------------

control::LoadOptions small_load() {
  control::LoadOptions load;
  load.count = 30;
  load.gap = msec(5);
  return load;
}

std::vector<Experiment> buggy_tree_sweep() {
  const AppSpec app = AppSpec::buggy_tree();
  campaign::SweepOptions options;
  options.load = small_load();
  return campaign::generate_sweep(app, app.probe_graph(), options);
}

TEST(EarlyExitTest, VerdictsAndSignaturesMatchFullRunsAcrossTheSweep) {
  // The headline equivalence: early-exit ON and OFF agree on every verdict
  // (and therefore every failure signature) for every experiment of the
  // buggy-tree sweep — ON is just faster.
  for (const Experiment& e : buggy_tree_sweep()) {
    ExecOptions on;   // defaults: early_exit = true
    ExecOptions off;
    off.early_exit = false;
    const ExperimentResult fast = CampaignRunner::run_one(e, on);
    const ExperimentResult full = CampaignRunner::run_one(e, off);
    ASSERT_TRUE(fast.ok) << e.id;
    ASSERT_TRUE(full.ok) << e.id;
    EXPECT_FALSE(full.early_terminated);
    EXPECT_EQ(fast.verdict_fingerprint(), full.verdict_fingerprint()) << e.id;
    EXPECT_EQ(control::failure_signature(fast.checks),
              control::failure_signature(full.checks))
        << e.id;
  }
}

std::vector<Experiment> vocabulary_sweep() {
  // One experiment per new fault class: probabilistic, distribution-valued,
  // windowed, and the three infra-level scenarios, all on the same tree so
  // the differential exercises each lowering path.
  const AppSpec app = AppSpec::tree();
  std::vector<Experiment> sweep;
  auto add = [&](std::string id, control::FailureSpec spec) {
    Experiment e;
    e.id = std::move(id);
    e.app = app;
    e.failures.push_back(std::move(spec));
    e.load = small_load();
    e.checks.push_back(CheckSpec::max_user_failures(0));
    sweep.push_back(std::move(e));
  };

  control::FailureSpec prob =
      control::FailureSpec::abort_edge("svc0", "svc1");
  prob.probability = 0.5;
  add("p=0.5 abort(svc0->svc1)", prob);

  control::FailureSpec uniform =
      control::FailureSpec::delay_edge("svc0", "svc2", msec(30));
  uniform.delay_distribution = faults::DelayDistribution::kUniform;
  uniform.delay_min = msec(10);
  uniform.delay_max = msec(60);
  add("uniform-delay(svc0->svc2)", uniform);

  control::FailureSpec empirical =
      control::FailureSpec::delay_edge("svc1", "svc3", msec(30));
  empirical.delay_distribution = faults::DelayDistribution::kEmpirical;
  empirical.delay_values = {msec(5), msec(20), msec(80)};
  add("empirical-delay(svc1->svc3)", empirical);

  control::FailureSpec windowed =
      control::FailureSpec::abort_edge("svc0", "svc1");
  windowed.after = msec(40);
  windowed.window = msec(60);
  add("windowed-abort(svc0->svc1)", windowed);

  add("instance-crash(svc2)",
      control::FailureSpec::instance_crash("svc2", msec(30), msec(50)));
  add("rolling-partition(svc1,svc2)",
      control::FailureSpec::rolling_partition({"svc1", "svc2"}, msec(10),
                                              msec(30), msec(40)));
  add("slow-node(svc1)",
      control::FailureSpec::slow_node("svc1", msec(20)));
  return sweep;
}

TEST(EarlyExitTest, VocabularyFaultsAgreeWithFullRunsToo) {
  // Same equivalence as above, but over the extended fault vocabulary:
  // probabilistic declines, sampled delays, activation windows, and the
  // infra scenarios must not open a gap between early-exit and full runs.
  for (const Experiment& e : vocabulary_sweep()) {
    ExecOptions on;  // defaults: early_exit = true
    ExecOptions off;
    off.early_exit = false;
    const ExperimentResult fast = CampaignRunner::run_one(e, on);
    const ExperimentResult full = CampaignRunner::run_one(e, off);
    ASSERT_TRUE(fast.ok) << e.id;
    ASSERT_TRUE(full.ok) << e.id;
    EXPECT_FALSE(full.early_terminated);
    EXPECT_EQ(fast.verdict_fingerprint(), full.verdict_fingerprint()) << e.id;
    EXPECT_EQ(control::failure_signature(fast.checks),
              control::failure_signature(full.checks))
        << e.id;
  }
}

TEST(EarlyExitTest, PinsTheTruncationIndependentSignature) {
  // Regression pin for control::failure_signature over early-terminated
  // runs: the canonical buggy-tree reproducer yields these exact bytes in
  // both modes, so a truncated log can never rename a failure mode.
  Experiment e;
  e.id = "abort(svc0->svc2)";
  e.app = AppSpec::buggy_tree();
  e.failures.push_back(control::FailureSpec::abort_edge("svc0", "svc2"));
  e.load = small_load();
  e.checks.push_back(CheckSpec::max_user_failures(0));

  ExecOptions off;
  off.early_exit = false;
  const ExperimentResult fast = CampaignRunner::run_one(e, ExecOptions{});
  const ExperimentResult full = CampaignRunner::run_one(e, off);
  ASSERT_FALSE(fast.passed());
  ASSERT_FALSE(full.passed());
  EXPECT_TRUE(fast.early_terminated);
  EXPECT_EQ(control::failure_signature(fast.checks), "MaxUserFailures(0)");
  EXPECT_EQ(control::failure_signature(full.checks), "MaxUserFailures(0)");
}

TEST(EarlyExitTest, FailingRunsProcessFewerEvents) {
  Experiment e;
  e.id = "crash(svc2)";
  e.app = AppSpec::buggy_tree();
  e.failures.push_back(control::FailureSpec::crash("svc2"));
  e.load = small_load();
  e.checks.push_back(CheckSpec::max_user_failures(0));

  sim::SimulationConfig cfg;
  cfg.seed = e.seed;
  sim::Simulation fast_sim(cfg);
  const ExperimentResult fast =
      CampaignRunner::run_in(e, &fast_sim, ExecOptions{});

  sim::Simulation full_sim(cfg);
  ExecOptions off;
  off.early_exit = false;
  const ExperimentResult full = CampaignRunner::run_in(e, &full_sim, off);

  ASSERT_FALSE(full.passed());
  EXPECT_TRUE(fast.early_terminated);
  EXPECT_FALSE(full.early_terminated);
  EXPECT_EQ(fast.verdict_fingerprint(), full.verdict_fingerprint());
  // The whole point: the failing run stops at the first user-visible
  // failure instead of draining the timeline.
  EXPECT_LT(fast_sim.events_processed(), full_sim.events_processed());
}

TEST(EarlyExitTest, RecordCheckPanelAgreesBetweenModes) {
  // A mixed panel streams the collector's record batches into its checks:
  // verdicts must still agree with the full run.
  for (const char* fault : {"svc2", "svc5"}) {
    Experiment e;
    e.id = std::string("crash(") + fault + ")";
    e.app = AppSpec::buggy_tree();
    e.failures.push_back(control::FailureSpec::crash(fault));
    e.load = small_load();
    e.checks.push_back(CheckSpec::has_timeouts("svc0", msec(500)));
    e.checks.push_back(CheckSpec::error_rate_below("user", "svc0", 0.5));
    e.checks.push_back(CheckSpec::max_user_failures(5));

    ExecOptions off;
    off.early_exit = false;
    const ExperimentResult fast = CampaignRunner::run_one(e, ExecOptions{});
    const ExperimentResult full = CampaignRunner::run_one(e, off);
    ASSERT_TRUE(fast.ok) << e.id;
    EXPECT_EQ(fast.verdict_fingerprint(), full.verdict_fingerprint()) << e.id;
  }
}

TEST(EarlyExitTest, FailureContainedStreamsToTheEndAndKeepsVerdicts) {
  // FailureContained streams like every other check but never decides
  // early, so a panel holding it runs to the end even with early exit on:
  // the result is byte-identical to early_exit=false.
  Experiment e;
  e.id = "crash(svc2) contained";
  e.app = AppSpec::buggy_tree();
  e.failures.push_back(control::FailureSpec::crash("svc2"));
  e.load = small_load();
  e.checks.push_back(CheckSpec::failure_contained("svc2"));
  e.checks.push_back(CheckSpec::max_user_failures(0));

  const ExperimentResult fast = CampaignRunner::run_one(e, ExecOptions{});
  ExecOptions off;
  off.early_exit = false;
  const ExperimentResult full = CampaignRunner::run_one(e, off);
  EXPECT_FALSE(fast.early_terminated);
  EXPECT_EQ(fast.fingerprint(), full.fingerprint());
}

// The engine against the oracle: each verdict of a buggy-tree experiment
// equals the post-hoc reference over the log the run preserved, in verdict,
// name and detail with early exit off, and in verdict with it on.
TEST(EngineReferenceTest, ChecksMatchTheOracleOverThePreservedLog) {
  const AppSpec app = AppSpec::buggy_tree();
  const topology::AppGraph graph = app.probe_graph();
  const std::vector<control::FailureSpec> faults = {
      control::FailureSpec::abort_edge("svc0", "svc2"),
      control::FailureSpec::delay_edge("svc0", "svc2", msec(300)),
      control::FailureSpec::crash("svc2"),
      control::FailureSpec::abort_edge("svc0", "svc1"),
      control::FailureSpec::crash("svc1"),
  };
  for (const control::FailureSpec& fault : faults) {
    Experiment e;
    e.id = std::string(fault.kind_name()) + "(" + fault.a + "->" +
           fault.b + ")";
    e.app = app;
    e.failures.push_back(fault);
    e.load = small_load();
    e.checks = {CheckSpec::has_timeouts("svc0", msec(250)),
                CheckSpec::has_bounded_retries("svc0", "svc1", 3),
                CheckSpec::has_latency_slo("user", "svc0", 99, msec(300)),
                CheckSpec::error_rate_below("svc0", "svc2", 0.5),
                CheckSpec::failure_contained("svc2"),
                CheckSpec::failure_contained("svc1"),
                CheckSpec::max_user_failures(0)};

    ExperimentResult full;
    for (const bool early_exit : {false, true}) {
      ExecOptions exec;
      exec.early_exit = early_exit;
      exec.preserve_log = true;
      sim::SimulationConfig cfg;
      cfg.seed = e.seed;
      sim::Simulation sim(cfg);
      const ExperimentResult result = CampaignRunner::run_in(e, &sim, exec);
      ASSERT_TRUE(result.ok) << e.id << ": " << result.error;
      ASSERT_EQ(result.checks.size(), e.checks.size()) << e.id;
      if (early_exit) {
        EXPECT_EQ(result.verdict_fingerprint(), full.verdict_fingerprint())
            << e.id;
        continue;
      }
      full = result;
      const reference::PostHocChecker oracle(&sim.log_store(), &graph);
      control::LoadResult load;
      load.latencies.resize(result.requests);
      load.failures = result.failures;
      for (size_t i = 0; i < e.checks.size(); ++i) {
        const CheckResult want = reference::evaluate(e.checks[i], oracle, load);
        const CheckResult& got = result.checks[i];
        EXPECT_EQ(got.passed, want.passed)
            << e.id << " " << want.name << "\n  oracle: " << want.detail
            << "\n  engine: " << got.detail;
        EXPECT_EQ(got.name, want.name) << e.id;
        EXPECT_EQ(got.detail, want.detail) << e.id;
      }
    }
  }
}

TEST(EarlyExitTest, PoolIsFullyReclaimedAfterEarlyTermination) {
  // Satellite of the kept-alive-sim contract: an early-terminated run
  // cancels its pending events, and every cancelled slot must be back on
  // the event pool's free list (leaked slab nodes would accumulate across
  // reuses).
  Experiment e;
  e.id = "crash(svc2)";
  e.app = AppSpec::buggy_tree();
  e.failures.push_back(control::FailureSpec::crash("svc2"));
  e.load = small_load();
  e.checks.push_back(CheckSpec::max_user_failures(0));

  sim::SimulationConfig cfg;
  cfg.seed = e.seed;
  sim::Simulation sim(cfg);
  const ExperimentResult result =
      CampaignRunner::run_in(e, &sim, ExecOptions{});
  EXPECT_TRUE(result.early_terminated);
  EXPECT_FALSE(sim.has_pending_events());
  EXPECT_FALSE(sim.stop_requested());
  EXPECT_EQ(sim.event_queue().free_list_length(),
            sim.event_queue().pool_capacity());
}

TEST(OnlineCheckerTest, FailureContainedNeverDecides) {
  control::OnlineChecker checker;
  checker.add(control::make_incremental_max_user_failures(0, 1));
  checker.add(control::make_incremental_failure_contained("b"));
  // A flow that fails at b and escapes to the root span: the full-stream
  // verdict is Fail, but a later record could still add flows.
  const auto record = [](int64_t ms, const char* src, const char* dst,
                         MessageKind kind, int status) {
    LogRecord r;
    r.timestamp = TimePoint{msec(ms)};
    r.request_id = "test-1";
    r.src = src;
    r.dst = dst;
    r.kind = kind;
    r.status = status;
    return r;
  };
  checker.offer(record(0, "user", "a", MessageKind::kRequest, 0));
  checker.offer(record(1, "a", "b", MessageKind::kRequest, 0));
  checker.offer(record(2, "a", "b", MessageKind::kResponse, 503));
  checker.offer(record(3, "user", "a", MessageKind::kResponse, 503));
  checker.on_user_response(false);  // decides the load check (pass)
  EXPECT_TRUE(checker.check(0)->decided());
  EXPECT_FALSE(checker.check(1)->decided());
  EXPECT_FALSE(checker.all_decided());
  const CheckResult contained = checker.check(1)->finalize(LoadSummary{});
  EXPECT_FALSE(contained.passed);
  EXPECT_EQ(contained.detail,
            "1 flows failed at b; 1 escaped to the user-facing edge");
}

}  // namespace
}  // namespace gremlin
