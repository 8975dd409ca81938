// Fault-vocabulary tests: the determinism harness for probabilistic,
// distribution-valued, time-bounded, and infra-level faults.
//
// The headline matrix: a campaign exercising every new fault class must be
// byte-identical (fingerprint() AND verdict_fingerprint()) at {1,4,8}
// threads × {1,2} processes × warm/cold — randomness widens what faults can
// express, never what runs can diverge. The unit tests below pin the
// mechanisms that make that possible: counter-based streams that are pure
// functions of (key, position), samplers that reproduce from the same key,
// activation windows on the virtual clock, and the instance-crash outage
// hook. The warmcache suite proves the paper-level payoff — a seeded bug
// only the richer vocabulary can reach. tests/differential_test.cc draws
// random campaigns over the same fault classes across every execution mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/process_pool.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "control/failures.h"
#include "faults/rule.h"
#include "faults/rule_engine.h"
#include "search/search.h"

namespace gremlin {
namespace {

using campaign::AppSpec;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::CheckSpec;
using campaign::Experiment;
using campaign::RunnerOptions;
using control::FailureSpec;
using faults::DelayDistribution;
using faults::FaultKind;
using faults::FaultRule;
using faults::MessageView;
using faults::RuleEngine;

// --- counter streams ---------------------------------------------------------

TEST(CounterRngTest, DrawIsAPureFunctionOfKeyAndPosition) {
  // Same (key, position) → same value, in any draw order.
  const uint64_t key = 0x9e3779b97f4a7c15ULL;
  std::vector<uint64_t> forward, backward;
  for (uint64_t i = 0; i < 100; ++i) forward.push_back(counter_u64(key, i));
  for (uint64_t i = 100; i-- > 0;) backward.push_back(counter_u64(key, i));
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);

  // Different keys decorrelate the streams.
  EXPECT_NE(counter_u64(key, 0), counter_u64(key + 1, 0));
}

TEST(CounterRngTest, DoubleStaysInUnitInterval) {
  for (uint64_t i = 0; i < 1000; ++i) {
    const double u = counter_double(0xfeedface, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- delay samplers ----------------------------------------------------------

TEST(DelaySamplerTest, UniformStaysInBoundsAndReproduces) {
  FaultRule r = FaultRule::delay_rule("a", "b", msec(100));
  r.delay_distribution = DelayDistribution::kUniform;
  r.delay_min = msec(10);
  r.delay_max = msec(40);
  const uint64_t key = 0xabcd;
  bool saw_low_half = false, saw_high_half = false;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Duration d = sample_delay(r, key, i);
    ASSERT_GE(d, msec(10));
    ASSERT_LE(d, msec(40));
    EXPECT_EQ(d, sample_delay(r, key, i));  // same position, same value
    if (d < msec(25)) saw_low_half = true;
    if (d >= msec(25)) saw_high_half = true;
  }
  EXPECT_TRUE(saw_low_half);
  EXPECT_TRUE(saw_high_half);
}

TEST(DelaySamplerTest, ExponentialIsPositiveAndCentersOnTheMean) {
  FaultRule r = FaultRule::delay_rule("a", "b", msec(100));
  r.delay_distribution = DelayDistribution::kExponential;
  r.delay_mean = msec(20);
  const uint64_t key = 0x1234;
  double sum_us = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Duration d = sample_delay(r, key, i);
    ASSERT_GT(d, kDurationZero);
    EXPECT_EQ(d, sample_delay(r, key, i));
    sum_us += static_cast<double>(d.count());
  }
  // Sample mean within 15% of the configured mean (20ms) at n=1000.
  EXPECT_NEAR(sum_us / 1000.0, 20000.0, 3000.0);
}

TEST(DelaySamplerTest, EmpiricalPicksOnlyListedValues) {
  FaultRule r = FaultRule::delay_rule("a", "b", msec(100));
  r.delay_distribution = DelayDistribution::kEmpirical;
  r.delay_values = {msec(5), msec(15), msec(25)};
  const std::set<Duration> allowed(r.delay_values.begin(),
                                   r.delay_values.end());
  std::set<Duration> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Duration d = sample_delay(r, 0x77, i);
    ASSERT_TRUE(allowed.count(d) != 0) << d.count();
    seen.insert(d);
  }
  EXPECT_EQ(seen, allowed);  // 1000 draws cover all three values
}

TEST(DelaySamplerTest, FixedIgnoresTheStream) {
  const FaultRule r = FaultRule::delay_rule("a", "b", msec(100));
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sample_delay(r, i * 31, i), msec(100));
  }
}

// --- probabilistic rules -----------------------------------------------------

MessageView request_view(std::string_view src, std::string_view dst,
                         std::string_view id, Duration now = {}) {
  MessageView m;
  m.src = src;
  m.dst = dst;
  m.request_id = id;
  m.now = now;
  return m;
}

TEST(ProbabilisticRuleTest, DegenerateProbabilitiesAreExact) {
  RuleEngine engine(/*seed=*/7);
  ASSERT_TRUE(
      engine.add_rule(FaultRule::abort_rule("a", "b", 503, "*", 0.0)).ok());
  ASSERT_TRUE(
      engine.add_rule(FaultRule::abort_rule("a", "c", 503, "*", 1.0)).ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(engine.evaluate(request_view("a", "b", "x")).none());
    EXPECT_EQ(engine.evaluate(request_view("a", "c", "x")).action,
              FaultKind::kAbort);
  }
}

TEST(ProbabilisticRuleTest, DeclineFallsThroughToLaterRules) {
  // First-match-wins with probabilistic fall-through: a declined p=0.5
  // abort lets the always-on delay behind it fire, so every message gets
  // exactly one action and the split converges to the conditional
  // probability.
  RuleEngine engine(/*seed=*/42);
  ASSERT_TRUE(
      engine.add_rule(FaultRule::abort_rule("a", "b", 503, "*", 0.5)).ok());
  ASSERT_TRUE(
      engine.add_rule(FaultRule::delay_rule("a", "b", msec(10), "*", 1.0))
          .ok());
  int aborts = 0, delays = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    switch (engine.evaluate(request_view("a", "b", "x")).action) {
      case FaultKind::kAbort: ++aborts; break;
      case FaultKind::kDelay: ++delays; break;
      default: FAIL() << "message escaped both rules";
    }
  }
  EXPECT_NEAR(static_cast<double>(aborts) / n, 0.5, 0.03);
  EXPECT_EQ(aborts + delays, n);
}

TEST(ProbabilisticRuleTest, StreamsAreIndependentOfSiblingRules) {
  // The draw for rule R at attempt N must not shift when an unrelated rule
  // is installed after it — counter streams are keyed per installation
  // position, not shared.
  auto fires = [](bool with_sibling) {
    RuleEngine engine(/*seed=*/11);
    (void)engine.add_rule(FaultRule::abort_rule("a", "b", 503, "*", 0.5));
    if (with_sibling) {
      (void)engine.add_rule(FaultRule::abort_rule("x", "y", 500, "*", 0.5));
    }
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(!engine.evaluate(request_view("a", "b", "r")).none());
      if (with_sibling) {
        (void)engine.evaluate(request_view("x", "y", "r"));
      }
    }
    return out;
  };
  EXPECT_EQ(fires(false), fires(true));
}

// --- activation windows ------------------------------------------------------

TEST(ActivationWindowTest, RuleIsInvisibleOutsideItsWindow) {
  RuleEngine engine;
  FaultRule r = FaultRule::abort_rule("a", "b", 503);
  r.after = msec(10);
  r.window_duration = msec(20);
  ASSERT_TRUE(engine.add_rule(r).ok());

  EXPECT_TRUE(engine.evaluate(request_view("a", "b", "x", msec(5))).none());
  EXPECT_EQ(engine.evaluate(request_view("a", "b", "x", msec(10))).action,
            FaultKind::kAbort);
  EXPECT_EQ(engine.evaluate(request_view("a", "b", "x", msec(29))).action,
            FaultKind::kAbort);
  EXPECT_TRUE(engine.evaluate(request_view("a", "b", "x", msec(30))).none());
  EXPECT_TRUE(engine.evaluate(request_view("a", "b", "x", msec(60))).none());
}

TEST(ActivationWindowTest, ZeroDurationWindowIsOpenEnded) {
  RuleEngine engine;
  FaultRule r = FaultRule::abort_rule("a", "b", 503);
  r.after = msec(10);
  ASSERT_TRUE(engine.add_rule(r).ok());
  EXPECT_TRUE(engine.evaluate(request_view("a", "b", "x", msec(9))).none());
  EXPECT_EQ(engine.evaluate(request_view("a", "b", "x", hours(1))).action,
            FaultKind::kAbort);
}

// --- infra-level lowering ----------------------------------------------------

topology::AppGraph chain_graph() {
  topology::AppGraph g;
  g.add_edge("user", "portal");
  g.add_edge("portal", "backend");
  g.add_edge("portal", "search");
  return g;
}

TEST(InfraFaultTest, InstanceCrashLowersToWindowedResets) {
  const auto rules = control::translate_failure(
      chain_graph(),
      FailureSpec::instance_crash("backend", msec(20), msec(50)));
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules.value().size(), 1u);  // backend has one dependent
  const FaultRule& r = rules.value()[0];
  EXPECT_EQ(r.type, FaultKind::kAbort);
  EXPECT_EQ(r.abort_code, faults::kTcpReset);
  EXPECT_EQ(r.after, msec(20));
  EXPECT_EQ(r.window_duration, msec(50));
}

TEST(InfraFaultTest, RollingPartitionStaggersMemberWindows) {
  const auto rules = control::translate_failure(
      chain_graph(),
      FailureSpec::rolling_partition({"search", "backend"}, msec(10),
                                     msec(30), msec(40)));
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules.value().empty());
  // Members are isolated in sorted order: backend first, then search,
  // offset by the stagger. Every rule is a windowed reset.
  std::set<Duration> onsets;
  for (const FaultRule& r : rules.value()) {
    EXPECT_EQ(r.type, FaultKind::kAbort);
    EXPECT_EQ(r.abort_code, faults::kTcpReset);
    EXPECT_EQ(r.window_duration, msec(30));
    onsets.insert(r.after);
  }
  EXPECT_EQ(onsets, (std::set<Duration>{msec(10), msec(50)}));
}

TEST(InfraFaultTest, SlowNodeLowersToDistributionDelays) {
  const auto rules = control::translate_failure(
      chain_graph(), FailureSpec::slow_node("backend", msec(25)));
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules.value().size(), 1u);
  const FaultRule& r = rules.value()[0];
  EXPECT_EQ(r.type, FaultKind::kDelay);
  EXPECT_EQ(r.delay_distribution, DelayDistribution::kExponential);
  EXPECT_EQ(r.delay_mean, msec(25));
}

// --- the probability axis ----------------------------------------------------

TEST(ProbabilityAxisTest, EveryLoweredRuleTakesTheSpecProbability) {
  std::vector<FailureSpec> specs = {
      FailureSpec::abort_edge("portal", "backend"),
      FailureSpec::delay_edge("portal", "backend", msec(10)),
      FailureSpec::modify_edge("portal", "backend", "a", "b"),
      FailureSpec::disconnect("portal", "backend"),
      FailureSpec::crash("backend"),
      FailureSpec::hang("backend", sec(1)),
      FailureSpec::fake_success("backend", "a", "b"),
      FailureSpec::partition({"backend"}),
      FailureSpec::instance_crash("backend", msec(20), msec(50)),
      FailureSpec::rolling_partition({"search", "backend"}, msec(10),
                                     msec(30), msec(40)),
      FailureSpec::slow_node("backend", msec(25)),
  };
  for (FailureSpec& spec : specs) {
    spec.probability = 0.25;
    const auto rules = control::translate_failure(chain_graph(), spec);
    ASSERT_TRUE(rules.ok()) << spec.kind_name();
    ASSERT_FALSE(rules.value().empty()) << spec.kind_name();
    for (const FaultRule& r : rules.value()) {
      EXPECT_EQ(r.probability, 0.25) << spec.kind_name() << " rule " << r.id;
    }
  }

  // Overload's abort/delay split is its own probability.
  FailureSpec overload = FailureSpec::overload("backend");
  overload.probability = 0.25;
  const auto rules = control::translate_failure(chain_graph(), overload);
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules.value().size(), 2u);
  EXPECT_EQ(rules.value()[0].probability, overload.overload_abort_fraction);
  EXPECT_EQ(rules.value()[1].probability, 1.0);
}

// `gremlin campaign --app buggy-tree --sweep both --probabilities 0.25,1
// --no-early-exit`: a p=0.25 disconnect fails about a quarter of the load,
// not all of it, and overload is swept once, without a p= label.
TEST(ProbabilityAxisTest, SweepAxisReachesEveryKindButOverload) {
  const AppSpec app = AppSpec::buggy_tree();
  campaign::SweepOptions sweep;
  sweep.probabilities = {0.25, 1.0};
  const auto experiments = campaign::generate_sweep(app, app.probe_graph(),
                                                    sweep);
  RunnerOptions options;
  options.early_exit = false;
  const CampaignResult result = CampaignRunner(options).run(experiments);

  std::map<std::string, const campaign::ExperimentResult*> by_id;
  size_t overloads = 0;
  for (size_t i = 0; i < experiments.size(); ++i) {
    by_id[result.experiments[i].id] = &result.experiments[i];
    if (experiments[i].failures.front().kind == FailureSpec::Kind::kOverload) {
      ++overloads;
      EXPECT_EQ(experiments[i].id.find(" p="), std::string::npos)
          << experiments[i].id;
      EXPECT_EQ(search::describe(experiments[i].failures.front()),
                experiments[i].id);
    }
  }
  EXPECT_GT(overloads, 0u);

  for (const char* kind : {"disconnect(svc0->svc2)", "abort(svc0->svc2)"}) {
    SCOPED_TRACE(kind);
    const auto quarter = by_id.find(std::string(kind) + " p=0.25");
    const auto always = by_id.find(std::string(kind) + " p=1");
    ASSERT_NE(quarter, by_id.end());
    ASSERT_NE(always, by_id.end());
    ASSERT_TRUE(quarter->second->ok && always->second->ok);
    EXPECT_EQ(always->second->failures, always->second->requests);
    EXPECT_GT(quarter->second->failures, 0u);
    EXPECT_LT(quarter->second->failures * 2, quarter->second->requests);
  }
}

control::LoadOptions small_load(size_t count = 30, Duration gap = msec(5)) {
  control::LoadOptions load;
  load.count = count;
  load.gap = gap;
  return load;
}

TEST(InfraFaultTest, InstanceCrashOutageRefusesThenRestarts) {
  // End to end through the campaign engine: the outage window [50ms, 100ms)
  // fails exactly the requests that land inside it; the service restarts
  // when the window closes, so later requests succeed again.
  Experiment e;
  e.id = "instance_crash(svc1)";
  e.app = AppSpec::quickstart(/*retries=*/0, /*timeout=*/msec(300));
  e.failures.push_back(
      FailureSpec::instance_crash("serviceB", msec(50), msec(50)));
  e.load = small_load(40, msec(5));  // spans 200ms
  e.checks.push_back(CheckSpec::max_user_failures(0));

  campaign::ExecOptions exec;
  exec.early_exit = false;
  const auto result = CampaignRunner::run_one(e, exec);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.failures, 0u);            // the window bites...
  EXPECT_LT(result.failures, e.load.count);  // ...but not outside itself

  // A window that opens after the load finishes never bites.
  Experiment late = e;
  late.failures.clear();
  late.failures.push_back(
      FailureSpec::instance_crash("serviceB", hours(1), msec(50)));
  const auto clean = CampaignRunner::run_one(late, exec);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.failures, 0u);
}

// --- the determinism matrix --------------------------------------------------

// One experiment per new fault class (plus a distribution-valued pair), all
// against the binary-tree app: the corpus the byte-identity matrix runs.
std::vector<Experiment> vocabulary_corpus() {
  const AppSpec app = AppSpec::tree();
  std::vector<Experiment> out;
  auto add = [&](std::string id, FailureSpec spec) {
    Experiment e;
    e.id = std::move(id);
    e.app = app;
    e.failures.push_back(std::move(spec));
    e.load = small_load();
    e.checks.push_back(CheckSpec::max_user_failures(0));
    e.seed = 42;
    out.push_back(std::move(e));
  };

  FailureSpec probabilistic = FailureSpec::abort_edge("svc0", "svc1");
  probabilistic.probability = 0.5;
  add("abort(svc0->svc1) p=0.5", probabilistic);

  FailureSpec uniform = FailureSpec::delay_edge("svc0", "svc2", msec(100));
  uniform.delay_distribution = DelayDistribution::kUniform;
  uniform.delay_min = msec(10);
  uniform.delay_max = msec(60);
  add("delay(svc0->svc2) uniform", uniform);

  FailureSpec empirical = FailureSpec::delay_edge("svc1", "svc3", msec(100));
  empirical.delay_distribution = DelayDistribution::kEmpirical;
  empirical.delay_values = {msec(5), msec(20), msec(80)};
  add("delay(svc1->svc3) empirical", empirical);

  FailureSpec windowed = FailureSpec::abort_edge("svc0", "svc1");
  windowed.after = msec(40);
  windowed.window = msec(60);
  add("abort(svc0->svc1) w=40ms+60ms", windowed);

  add("instance_crash(svc2)",
      FailureSpec::instance_crash("svc2", msec(30), msec(50)));
  add("rolling_partition({svc1,svc2})",
      FailureSpec::rolling_partition({"svc1", "svc2"}, msec(10), msec(30),
                                     msec(40)));
  add("slow_node(svc1)", FailureSpec::slow_node("svc1", msec(20)));
  return out;
}

RunnerOptions matrix_opts(int procs, int threads, bool warm) {
  RunnerOptions o;
  o.procs = procs;
  o.threads = threads;
  o.warm_worlds = warm;
  o.keep_latencies = true;  // byte-identity must cover raw latencies too
  o.early_exit = false;     // full runs: fingerprints cover every request
  return o;
}

TEST(FaultVocabMatrixTest, ByteIdenticalAcrossThreadsProcsWarmCold) {
  const auto experiments = vocabulary_corpus();
  const CampaignResult reference =
      CampaignRunner(matrix_opts(1, 1, /*warm=*/false)).run(experiments);
  ASSERT_EQ(reference.experiments.size(), experiments.size());

  for (const bool warm : {false, true}) {
    for (const int threads : {1, 4, 8}) {
      for (const int procs : {1, 2}) {
        if (procs > 1 && !campaign::multiproc_available()) continue;
        const CampaignResult run =
            CampaignRunner(matrix_opts(procs, threads, warm))
                .run(experiments);
        ASSERT_EQ(run.experiments.size(), experiments.size());
        EXPECT_EQ(run.fingerprint(), reference.fingerprint())
            << "procs=" << procs << " threads=" << threads
            << " warm=" << warm;
        EXPECT_EQ(run.verdict_fingerprint(), reference.verdict_fingerprint())
            << "procs=" << procs << " threads=" << threads
            << " warm=" << warm;
      }
    }
  }
}

// --- the payoff: a bug only the new vocabulary reaches -----------------------

search::SearchOptions warmcache_search() {
  search::SearchOptions options;
  options.seed = 42;
  options.threads = 1;
  options.load.count = 40;
  options.load.gap = msec(2);
  options.generator.kinds = {
      FailureSpec::Kind::kAbort, FailureSpec::Kind::kDelay,
      FailureSpec::Kind::kCrash, FailureSpec::Kind::kDisconnect};
  return options;
}

TEST(WarmCacheSearchTest, DeterministicFaultsNeverReachTheBug) {
  // Every always-on fault makes the backend fail from request zero, so the
  // cold-start fallback absorbs all of them: the deterministic vocabulary
  // proves nothing is wrong.
  const auto outcome =
      search::run_search(AppSpec::warmcache(), warmcache_search());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.baseline_passed);
  EXPECT_GT(outcome.ran, 0u);
  EXPECT_FALSE(outcome.found_failures());
}

TEST(WarmCacheSearchTest, ProbabilisticFaultReachesTheBug) {
  search::SearchOptions options = warmcache_search();
  options.generator.probability = 0.5;
  const auto outcome = search::run_search(AppSpec::warmcache(), options);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(outcome.found_failures());
  // The reproducer names the probabilistic variant explicitly.
  EXPECT_NE(outcome.findings[0].minimal.find("p=0.5"), std::string::npos)
      << outcome.findings[0].minimal;
}

TEST(WarmCacheSearchTest, WindowedFaultReachesTheBug) {
  search::SearchOptions options = warmcache_search();
  options.generator.after = msec(20);  // open-ended window, delayed onset
  const auto outcome = search::run_search(AppSpec::warmcache(), options);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(outcome.found_failures());
  EXPECT_NE(outcome.findings[0].minimal.find("w=20ms"), std::string::npos)
      << outcome.findings[0].minimal;
}

TEST(WarmCacheSearchTest, FindingsReplayDeterministically) {
  search::SearchOptions options = warmcache_search();
  options.generator.probability = 0.5;
  const auto first = search::run_search(AppSpec::warmcache(), options);
  const auto second = search::run_search(AppSpec::warmcache(), options);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  ASSERT_EQ(first.findings.size(), second.findings.size());
  for (size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(first.findings[i].minimal, second.findings[i].minimal);
    EXPECT_EQ(first.findings[i].seed, second.findings[i].seed);
    EXPECT_EQ(first.findings[i].signature, second.findings[i].signature);
  }
}

}  // namespace
}  // namespace gremlin
