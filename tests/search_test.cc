// Fault-space search tests: combination generation (k-ascending order,
// budget truncation, pairwise covering), dependency-aware pruning against
// hand-built call graphs, delta-debugging shrinking with scripted fake
// runners, and the end-to-end acceptance run on the seeded-bug redundant
// app: ≥50% of the k ≤ 2 space pruned, the injected failure found, and the
// exact minimal 2-fault reproducer recovered with a replayable seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "campaign/app_spec.h"
#include "report/search_report.h"
#include "search/combinations.h"
#include "search/pruner.h"
#include "search/search.h"
#include "search/shrinker.h"

namespace gremlin::search {
namespace {

// ------------------------------------------------------------- generator

topology::AppGraph fan_graph() {
  // user -> front -> {db, cache}
  topology::AppGraph g;
  g.add_edge("user", "front");
  g.add_edge("front", "db");
  g.add_edge("front", "cache");
  return g;
}

TEST(GeneratorTest, EnumeratesFaultPointsDeterministically) {
  GeneratorOptions options;
  const auto points =
      enumerate_fault_points(fan_graph(), options, {"user", "front"});
  // Edge kinds (abort, delay, disconnect) on front->cache and front->db
  // (edges into excluded services are skipped), service kinds (overload,
  // crash) on cache and db.
  ASSERT_EQ(points.size(), 3u * 2u + 2u * 2u);
  for (const auto& p : points) {
    EXPECT_FALSE(p.label.empty());
    EXPECT_FALSE(p.trigger_edges.empty());
    EXPECT_EQ(p.label, describe(p.spec));
  }
  // Deterministic: a second enumeration is identical.
  const auto again =
      enumerate_fault_points(fan_graph(), options, {"user", "front"});
  ASSERT_EQ(again.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(again[i].label, points[i].label);
  }
}

TEST(GeneratorTest, ServicePointsTriggerOnDependentEdges) {
  GeneratorOptions options;
  options.kinds = {control::FailureSpec::Kind::kCrash};
  topology::AppGraph g;
  g.add_edge("a", "shared");
  g.add_edge("b", "shared");
  const auto points = enumerate_fault_points(g, options, {});
  ASSERT_EQ(points.size(), 3u);  // crash(a), crash(b), crash(shared)
  const auto shared = std::find_if(
      points.begin(), points.end(),
      [](const FaultPoint& p) { return p.label == "crash(shared)"; });
  ASSERT_NE(shared, points.end());
  // Crash(shared) manipulates traffic on every dependent edge.
  ASSERT_EQ(shared->trigger_edges.size(), 2u);
  EXPECT_EQ(shared->trigger_edges[0].src, "a");
  EXPECT_EQ(shared->trigger_edges[1].src, "b");
}

TEST(GeneratorTest, CombinationsAreKAscendingAndComplete) {
  GeneratorOptions options;
  const auto points =
      enumerate_fault_points(fan_graph(), options, {"user", "front"});
  ASSERT_EQ(points.size(), 10u);

  size_t truncated = 123;
  const auto combos = generate_combinations(points, options, &truncated);
  EXPECT_EQ(truncated, 0u);
  // C(10,1) + C(10,2).
  ASSERT_EQ(combos.size(), 10u + 45u);

  std::set<std::vector<size_t>> seen;
  size_t last_k = 0;
  for (const auto& c : combos) {
    EXPECT_GE(c.points.size(), last_k) << "k must be non-decreasing";
    last_k = c.points.size();
    EXPECT_TRUE(std::is_sorted(c.points.begin(), c.points.end()));
    EXPECT_TRUE(seen.insert(c.points).second) << c.label << " duplicated";
    EXPECT_FALSE(c.label.empty());
  }
}

TEST(GeneratorTest, BudgetKeepsSinglesDropsDeepest) {
  GeneratorOptions options;
  options.max_combinations = 20;
  const auto points =
      enumerate_fault_points(fan_graph(), options, {"user", "front"});
  size_t truncated = 0;
  const auto combos = generate_combinations(points, options, &truncated);
  ASSERT_EQ(combos.size(), 20u);
  EXPECT_EQ(truncated, 35u);  // 55 total - 20 kept
  // Generation is k-ascending, so every single survives the cut.
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(combos[i].points.size(), 1u);
}

TEST(GeneratorTest, MaxKIsClamped) {
  const auto points = enumerate_fault_points(fan_graph(), GeneratorOptions{},
                                             {"user", "front"});
  GeneratorOptions low;
  low.max_k = 0;
  EXPECT_EQ(generate_combinations(points, low).size(), points.size());

  GeneratorOptions high;
  high.max_k = 9;  // clamped to 3
  high.max_combinations = 0;
  const auto combos = generate_combinations(points, high);
  // C(10,1) + C(10,2) + C(10,3).
  EXPECT_EQ(combos.size(), 10u + 45u + 120u);
}

TEST(GeneratorTest, PairwiseCoversEveryPairWithFewerCombinations) {
  const auto points = enumerate_fault_points(fan_graph(), GeneratorOptions{},
                                             {"user", "front"});
  GeneratorOptions options;
  options.max_k = 3;
  options.pairwise = true;
  options.max_combinations = 0;
  const auto combos = generate_combinations(points, options);

  // Far below the exhaustive 175, but every pair still co-occurs somewhere.
  EXPECT_LT(combos.size(), 175u / 2);
  std::set<std::pair<size_t, size_t>> covered;
  for (const auto& c : combos) {
    for (size_t i = 0; i < c.points.size(); ++i) {
      for (size_t j = i + 1; j < c.points.size(); ++j) {
        covered.insert({c.points[i], c.points[j]});
      }
    }
  }
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_TRUE(covered.count({i, j})) << i << "," << j << " uncovered";
    }
  }
}

// ---------------------------------------------------------------- pruner

FaultPoint edge_point(const std::string& src, const std::string& dst) {
  FaultPoint p;
  p.spec = control::FailureSpec::abort_edge(src, dst);
  p.label = describe(p.spec);
  p.trigger_edges = {{src, dst}};
  return p;
}

Combination combo_of(std::vector<size_t> indices,
                     const std::vector<FaultPoint>& points) {
  Combination c;
  c.points = std::move(indices);
  for (const size_t i : c.points) {
    if (!c.label.empty()) c.label += " + ";
    c.label += points[i].label;
  }
  return c;
}

TEST(PrunerTest, UnreachableFaultIsPruned) {
  logstore::CallGraph observed;
  observed.edges = {{"a", "b"}};
  observed.paths = {{{"a", "b"}}};

  const std::vector<FaultPoint> points = {edge_point("a", "b"),
                                          edge_point("a", "ghost")};
  EXPECT_TRUE(decide(points, combo_of({0}, points), observed).keep());

  const PruneDecision pruned =
      decide(points, combo_of({1}, points), observed);
  EXPECT_EQ(pruned.verdict, PruneVerdict::kUnreachableFault);
  EXPECT_NE(pruned.detail.find("abort(a->ghost)"), std::string::npos);

  // One unreachable member poisons the whole combination.
  EXPECT_EQ(decide(points, combo_of({0, 1}, points), observed).verdict,
            PruneVerdict::kUnreachableFault);
}

TEST(PrunerTest, DisjointPathsCannotInteract) {
  // Requests either took a->b or a->c, never both: a pair faulting both
  // edges cannot compound on any flow.
  logstore::CallGraph observed;
  observed.edges = {{"a", "b"}, {"a", "c"}};
  observed.paths = {{{"a", "b"}}, {{"a", "c"}}};

  const std::vector<FaultPoint> points = {edge_point("a", "b"),
                                          edge_point("a", "c")};
  // Each single is individually reachable.
  EXPECT_TRUE(decide(points, combo_of({0}, points), observed).keep());
  EXPECT_TRUE(decide(points, combo_of({1}, points), observed).keep());

  const PruneDecision pruned =
      decide(points, combo_of({0, 1}, points), observed);
  EXPECT_EQ(pruned.verdict, PruneVerdict::kNoSharedPath);
}

TEST(PrunerTest, SharedPathKeepsThePair) {
  logstore::CallGraph observed;
  observed.edges = {{"a", "b"}, {"a", "c"}};
  observed.paths = {{{"a", "b"}, {"a", "c"}}};  // one flow touched both

  const std::vector<FaultPoint> points = {edge_point("a", "b"),
                                          edge_point("a", "c")};
  EXPECT_TRUE(decide(points, combo_of({0, 1}, points), observed).keep());
}

TEST(PrunerTest, ServiceFaultReachableThroughAnyDependentEdge) {
  logstore::CallGraph observed;
  observed.edges = {{"a", "shared"}};
  observed.paths = {{{"a", "shared"}}};

  FaultPoint crash;
  crash.spec = control::FailureSpec::crash("shared");
  crash.label = describe(crash.spec);
  crash.trigger_edges = {{"a", "shared"}, {"b", "shared"}};

  const std::vector<FaultPoint> points = {crash};
  // b->shared was never observed, but a->shared was: the crash is live.
  EXPECT_TRUE(decide(points, combo_of({0}, points), observed).keep());
}

// -------------------------------------------------------------- shrinker

campaign::ExperimentResult fake_result(
    const std::vector<std::string>& failed_checks) {
  campaign::ExperimentResult r;
  r.ok = true;
  control::CheckResult passing;
  passing.name = "AlwaysFine";
  passing.passed = true;
  r.checks.push_back(passing);
  ++r.checks_passed;
  for (const auto& name : failed_checks) {
    control::CheckResult failing;
    failing.name = name;
    failing.passed = false;
    r.checks.push_back(failing);
  }
  return r;
}

campaign::Experiment faulty_experiment(std::vector<std::string> dsts,
                                       size_t load_count = 1) {
  campaign::Experiment e;
  e.id = "scripted";
  for (auto& dst : dsts) {
    e.failures.push_back(control::FailureSpec::abort_edge("x", dst));
  }
  e.load.count = load_count;
  return e;
}

TEST(ShrinkerTest, AlreadyMinimalReturnsUnchanged) {
  size_t runs = 0;
  const RunFn always_fails = [&](const campaign::Experiment&) {
    ++runs;
    return fake_result({"Broken"});
  };
  const ShrinkResult result =
      shrink(faulty_experiment({"a"}, /*load_count=*/1), always_fails);
  EXPECT_TRUE(result.reproduced);
  EXPECT_FALSE(result.flaky);
  EXPECT_TRUE(result.already_minimal());
  EXPECT_EQ(result.faults_after, 1u);
  EXPECT_EQ(result.load_after, 1u);
  EXPECT_EQ(result.signature, "Broken");
  EXPECT_EQ(runs, 1u);  // just the verification re-run

  // A supplied reference replaces the re-run: nothing executes, and it
  // still counts as the one requested run.
  runs = 0;
  const campaign::ExperimentResult batch = fake_result({"Broken"});
  const ShrinkResult referenced =
      shrink(faulty_experiment({"a"}, /*load_count=*/1), always_fails, {},
             nullptr, &batch);
  EXPECT_TRUE(referenced.reproduced);
  EXPECT_TRUE(referenced.already_minimal());
  EXPECT_EQ(referenced.signature, "Broken");
  EXPECT_EQ(referenced.runs, 1u);
  EXPECT_EQ(referenced.executed, 0u);
  EXPECT_EQ(runs, 0u);
}

TEST(ShrinkerTest, TripleFaultShrinksToSingleCause) {
  // Only the fault on edge x->b matters; a and c are innocent bystanders.
  const RunFn culprit_is_b = [](const campaign::Experiment& e) {
    for (const auto& f : e.failures) {
      if (f.b == "b") return fake_result({"Broken"});
    }
    return fake_result({});
  };
  const ShrinkResult result =
      shrink(faulty_experiment({"a", "b", "c"}), culprit_is_b);
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.faults_before, 3u);
  ASSERT_EQ(result.faults_after, 1u);
  ASSERT_EQ(result.minimal.failures.size(), 1u);
  EXPECT_EQ(result.minimal.failures[0].b, "b");
  EXPECT_FALSE(result.already_minimal());
}

TEST(ShrinkerTest, NonReproducibleFailureIsFlakyNotALoop) {
  size_t runs = 0;
  const RunFn always_passes = [&](const campaign::Experiment&) {
    ++runs;
    return fake_result({});
  };
  const ShrinkResult result =
      shrink(faulty_experiment({"a", "b", "c"}), always_passes);
  EXPECT_TRUE(result.flaky);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(runs, 1u);  // reported immediately, no shrink attempts
  EXPECT_EQ(result.minimal.failures.size(), 3u);  // input returned unshrunk

  // A passing reference is flaky the same way, without executing anything.
  runs = 0;
  const campaign::ExperimentResult passed = fake_result({});
  const ShrinkResult referenced = shrink(faulty_experiment({"a", "b", "c"}),
                                         always_passes, {}, nullptr, &passed);
  EXPECT_TRUE(referenced.flaky);
  EXPECT_FALSE(referenced.reproduced);
  EXPECT_EQ(referenced.runs, 1u);
  EXPECT_EQ(runs, 0u);
  EXPECT_EQ(referenced.minimal.failures.size(), 3u);
}

TEST(ShrinkerTest, ReductionMustPreserveTheFailureMode) {
  // Together a and b violate two checks; either alone violates only one.
  // Dropping a fault would "shrink" the bug into a different bug, so the
  // pair must survive as-is.
  const RunFn mode_shifts = [](const campaign::Experiment& e) {
    if (e.failures.size() >= 2) return fake_result({"Slow", "Wrong"});
    return fake_result({"Slow"});
  };
  ShrinkOptions options;
  options.shrink_load = false;
  const ShrinkResult result =
      shrink(faulty_experiment({"a", "b"}), mode_shifts, options);
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.signature, "Slow + Wrong");
  EXPECT_EQ(result.faults_after, 2u);
  EXPECT_TRUE(result.already_minimal());
}

TEST(ShrinkerTest, LoadHalvesToTheFloor) {
  const RunFn always_fails = [](const campaign::Experiment&) {
    return fake_result({"Broken"});
  };
  const ShrinkResult result =
      shrink(faulty_experiment({"a"}, /*load_count=*/40), always_fails);
  EXPECT_EQ(result.load_before, 40u);
  EXPECT_EQ(result.load_after, 1u);
  EXPECT_EQ(result.minimal.load.count, 1u);
}

TEST(ShrinkerTest, RunBudgetIsRespected) {
  size_t runs = 0;
  const RunFn always_fails = [&](const campaign::Experiment&) {
    ++runs;
    return fake_result({"Broken"});
  };
  ShrinkOptions options;
  options.max_runs = 1;  // verification only
  const ShrinkResult result =
      shrink(faulty_experiment({"a", "b", "c"}, 40), always_fails, options);
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(result.faults_after, 3u);
  EXPECT_EQ(result.load_after, 40u);

  // A supplied reference uses up that one run just the same.
  runs = 0;
  const campaign::ExperimentResult batch = fake_result({"Broken"});
  const ShrinkResult referenced = shrink(
      faulty_experiment({"a", "b", "c"}, 40), always_fails, options, nullptr,
      &batch);
  EXPECT_TRUE(referenced.reproduced);
  EXPECT_EQ(referenced.runs, 1u);
  EXPECT_EQ(runs, 0u);
  EXPECT_EQ(referenced.faults_after, 3u);
  EXPECT_EQ(referenced.load_after, 40u);
}

// ------------------------------------------------------------ probe memo

// Ordered fault labels plus load: what a scripted runner counts executions
// by. Labels are unique among the scripted faults, so this is exact here.
std::string probe_label(const campaign::Experiment& e) {
  std::string label = std::to_string(e.load.count) + ":";
  for (const auto& f : e.failures) label += f.b + ",";
  return label;
}

TEST(ShrinkerTest, CandidatesChangeOnlyFaultsAndLoad) {
  // Every executed candidate must be the failing k=3 experiment with only
  // its faults (an order-preserving subsequence) and its load count
  // changed. Shrinking the k=3 experiment and then three of its pairs
  // repeats probes, which a shared memo executes once each.
  campaign::Experiment failing = faulty_experiment({"a", "b", "c"}, 40);
  failing.id = "k3";
  failing.app = campaign::AppSpec::named("mega:2x2").value();
  failing.client = "edge";
  failing.target = "front";
  failing.load.gap = msec(7);
  failing.load.id_prefix = "k3-";
  failing.load.uri = "/cart";
  failing.load.method = "POST";
  failing.load.body = "{}";
  failing.load.closed_loop = true;
  failing.load.horizon = sec(9);
  failing.checks = {
      campaign::CheckSpec::has_bounded_retries("front", "db", 4),
      campaign::CheckSpec::max_user_failures(3)};
  failing.seed = 9;

  std::vector<std::string> executed;
  const RunFn recording = [&](const campaign::Experiment& e) {
    EXPECT_EQ(e.id, failing.id);
    EXPECT_EQ(e.seed, failing.seed);
    EXPECT_EQ(e.client, failing.client);
    EXPECT_EQ(e.target, failing.target);
    EXPECT_EQ(e.app.identity(), failing.app.identity());
    EXPECT_EQ(e.checks.size(), failing.checks.size());
    for (size_t i = 0; i < std::min(e.checks.size(), failing.checks.size());
         ++i) {
      EXPECT_EQ(e.checks[i].kind, failing.checks[i].kind);
      EXPECT_EQ(e.checks[i].a, failing.checks[i].a);
      EXPECT_EQ(e.checks[i].b, failing.checks[i].b);
      EXPECT_EQ(e.checks[i].threshold, failing.checks[i].threshold);
      EXPECT_EQ(e.checks[i].value, failing.checks[i].value);
    }
    EXPECT_EQ(e.load.gap, failing.load.gap);
    EXPECT_EQ(e.load.id_prefix, failing.load.id_prefix);
    EXPECT_EQ(e.load.uri, failing.load.uri);
    EXPECT_EQ(e.load.method, failing.load.method);
    EXPECT_EQ(e.load.body, failing.load.body);
    EXPECT_EQ(e.load.closed_loop, failing.load.closed_loop);
    EXPECT_EQ(e.load.horizon, failing.load.horizon);
    EXPECT_LE(e.load.count, failing.load.count);
    size_t next = 0;  // order-preserving subsequence of failing.failures
    for (const auto& f : e.failures) {
      while (next < failing.failures.size() &&
             failing.failures[next].fingerprint() != f.fingerprint()) {
        ++next;
      }
      EXPECT_LT(next, failing.failures.size()) << probe_label(e);
      ++next;
    }
    executed.push_back(probe_label(e));
    std::vector<std::string> failed;
    for (const auto& f : e.failures) {
      if (f.b == "b" || f.b == "c") failed = {"Broken"};
    }
    if (!failed.empty() && e.load.count > 5) failed.push_back("Slow");
    return fake_result(failed);
  };

  std::vector<campaign::Experiment> shrinks = {failing};
  for (const std::vector<size_t>& pair : std::vector<std::vector<size_t>>{
           {0, 1}, {1, 2}, {0, 2}}) {
    campaign::Experiment e = failing;
    e.failures.clear();
    for (const size_t i : pair) e.failures.push_back(failing.failures[i]);
    shrinks.push_back(e);
  }
  auto run_all = [&](ProbeMemo* memo) {
    std::vector<ShrinkResult> results;
    for (const campaign::Experiment& e : shrinks) {
      // The batch result as the reference: only reductions execute.
      const size_t before = executed.size();
      const campaign::ExperimentResult batch = recording(e);
      executed.resize(before);
      results.push_back(shrink(e, recording, {}, memo, &batch));
    }
    return results;
  };

  executed.clear();
  const std::vector<ShrinkResult> plain = run_all(nullptr);
  const std::vector<std::string> plain_sequence = executed;
  executed.clear();
  ProbeMemo memo;
  const std::vector<ShrinkResult> memoized = run_all(&memo);

  std::vector<std::string> first_occurrences;
  std::set<std::string> seen;
  for (const std::string& label : plain_sequence) {
    if (seen.insert(label).second) first_occurrences.push_back(label);
  }
  EXPECT_LT(first_occurrences.size(), plain_sequence.size());
  EXPECT_EQ(executed, first_occurrences);
  ASSERT_EQ(plain.size(), memoized.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].runs, memoized[i].runs) << i;
    EXPECT_EQ(plain[i].executed, plain[i].runs - 1) << i;
    EXPECT_EQ(probe_label(plain[i].minimal), probe_label(memoized[i].minimal));
    EXPECT_EQ(plain[i].signature, memoized[i].signature);
    // The minimal reproducer keeps every field but faults and load too.
    EXPECT_EQ(memoized[i].minimal.id, failing.id);
    EXPECT_EQ(memoized[i].minimal.seed, failing.seed);
    EXPECT_EQ(memoized[i].minimal.target, failing.target);
    EXPECT_EQ(memoized[i].minimal.load.gap, failing.load.gap);
  }
  // {a,b,c} shrinks to {c} at 10 requests: below 6 the "Slow" check passes.
  EXPECT_EQ(probe_label(memoized[0].minimal), "10:c,");
}

TEST(ProbeMemoTest, RepeatedCandidateExecutesOnce) {
  // Only the fault on x->a matters. Shrinking {a,b} and then {a,c} probes
  // {a} both times; with a shared memo it is simulated once.
  std::map<std::string, size_t> executions;
  const RunFn culprit_is_a = [&](const campaign::Experiment& e) {
    ++executions[probe_label(e)];
    for (const auto& f : e.failures) {
      if (f.b == "a") return fake_result({"Broken"});
    }
    return fake_result({});
  };
  ShrinkOptions options;
  options.shrink_load = false;
  ProbeMemo memo;
  const ShrinkResult first =
      shrink(faulty_experiment({"a", "b"}), culprit_is_a, options, &memo);
  const ShrinkResult second =
      shrink(faulty_experiment({"a", "c"}), culprit_is_a, options, &memo);

  EXPECT_EQ(executions["1:a,"], 1u);
  for (const auto& [label, n] : executions) EXPECT_EQ(n, 1u) << label;
  // verify {a,b}, drop a -> {b} passes, drop b -> {a} reproduces.
  EXPECT_EQ(first.runs, 3u);
  EXPECT_EQ(first.executed, 3u);
  EXPECT_EQ(second.runs, 3u);
  EXPECT_EQ(second.executed, 2u);  // {a} answered by the memo
  ASSERT_EQ(second.minimal.failures.size(), 1u);
  EXPECT_EQ(second.minimal.failures[0].b, "a");
}

TEST(ProbeMemoTest, KeyTellsApartLoadCountFaultOrderAndSeed) {
  ProbeMemo memo;
  const campaign::Experiment ab = faulty_experiment({"a", "b"}, 40);
  memo.record(ab, fake_result({"Broken"}));
  ASSERT_NE(memo.find(ab), nullptr);
  EXPECT_FALSE(memo.find(ab)->passed);
  EXPECT_EQ(memo.find(ab)->signature, "Broken");

  EXPECT_EQ(memo.find(faulty_experiment({"b", "a"}, 40)), nullptr);
  EXPECT_EQ(memo.find(faulty_experiment({"a", "b"}, 20)), nullptr);
  EXPECT_EQ(memo.find(faulty_experiment({"a"}, 40)), nullptr);
  campaign::Experiment reseeded = ab;
  reseeded.seed = ab.seed + 1;
  EXPECT_EQ(memo.find(reseeded), nullptr);
  // Two specs with one describe() label but different fields.
  campaign::Experiment other_code = ab;
  other_code.failures[0].error = 500;
  ASSERT_EQ(describe(other_code.failures[0]), describe(ab.failures[0]));
  EXPECT_EQ(memo.find(other_code), nullptr);
  // The id is not part of the key.
  campaign::Experiment renamed = ab;
  renamed.id = "another";
  EXPECT_NE(memo.find(renamed), nullptr);
}

TEST(ProbeMemoTest, KeyedEntriesNeverAnswerAnotherOrderOrLoad) {
  // Fails only while x->a is the first of at least two faults. Entries for
  // {c,a} and for {a,c} at another load are recorded as passing; were the
  // key blind to order or load, they would hide the {a,c} reduction.
  std::map<std::string, size_t> executions;
  const RunFn a_leads = [&](const campaign::Experiment& e) {
    ++executions[probe_label(e)];
    const bool fails = e.failures.size() >= 2 && e.failures[0].b == "a";
    return fake_result(fails ? std::vector<std::string>{"Broken"}
                             : std::vector<std::string>{});
  };
  ProbeMemo memo;
  memo.record(faulty_experiment({"c", "a"}, 1), fake_result({}));
  memo.record(faulty_experiment({"a", "c"}, 2), fake_result({}));
  ShrinkOptions options;
  options.shrink_load = false;
  const ShrinkResult result =
      shrink(faulty_experiment({"a", "b", "c"}, 1), a_leads, options, &memo);
  ASSERT_EQ(result.minimal.failures.size(), 2u);
  EXPECT_EQ(result.minimal.failures[0].b, "a");
  EXPECT_EQ(result.minimal.failures[1].b, "c");
  EXPECT_EQ(executions["1:a,c,"], 1u);
}

TEST(ProbeMemoTest, VerificationReRunAlwaysExecutes) {
  // Fails on its first execution only. The first shrink (verification
  // only) records the failure; the second must re-simulate rather than
  // trust that entry, and so report the flake.
  size_t calls = 0;
  const RunFn fails_once = [&](const campaign::Experiment&) {
    return fake_result(++calls == 1 ? std::vector<std::string>{"Broken"}
                                    : std::vector<std::string>{});
  };
  ShrinkOptions verify_only;
  verify_only.max_runs = 1;
  ProbeMemo memo;
  const campaign::Experiment e = faulty_experiment({"a", "b"});
  const ShrinkResult first = shrink(e, fails_once, verify_only, &memo);
  EXPECT_TRUE(first.reproduced);
  ASSERT_NE(memo.find(e), nullptr);
  EXPECT_FALSE(memo.find(e)->passed);

  const ShrinkResult second = shrink(e, fails_once, {}, &memo);
  EXPECT_EQ(calls, 2u);
  EXPECT_TRUE(second.flaky);
  EXPECT_FALSE(second.reproduced);
  EXPECT_EQ(second.runs, 1u);
  EXPECT_EQ(second.executed, 1u);
  EXPECT_TRUE(memo.find(e)->passed);  // the re-run's outcome is recorded

  // A supplied reference is recorded the same way, without executing, and
  // takes precedence over the memo's entry.
  const campaign::ExperimentResult batch = fake_result({"Broken"});
  const ShrinkResult third = shrink(e, fails_once, verify_only, &memo, &batch);
  EXPECT_EQ(calls, 2u);
  EXPECT_TRUE(third.reproduced);
  EXPECT_EQ(third.runs, 1u);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_FALSE(memo.find(e)->passed);
  EXPECT_EQ(memo.find(e)->signature, "Broken");
}

TEST(ProbeMemoTest, BatchResultAnswersAPassingCandidate) {
  // Only x->a matters. The pair {a,b} probes {b} (passes) and then {a}. A
  // memo seeded with the batch's passing {b} answers the first probe.
  std::map<std::string, size_t> executions;
  const RunFn culprit_is_a = [&](const campaign::Experiment& e) {
    ++executions[probe_label(e)];
    for (const auto& f : e.failures) {
      if (f.b == "a") return fake_result({"Broken"});
    }
    return fake_result({});
  };
  const campaign::Experiment pair = faulty_experiment({"a", "b"});
  const campaign::ExperimentResult pair_batch = fake_result({"Broken"});

  ProbeMemo unseeded;
  const ShrinkResult plain =
      shrink(pair, culprit_is_a, {}, &unseeded, &pair_batch);
  EXPECT_EQ(executions["1:b,"], 1u);

  executions.clear();
  ProbeMemo seeded;
  seeded.record(faulty_experiment({"b"}), fake_result({}));
  const ShrinkResult answered =
      shrink(pair, culprit_is_a, {}, &seeded, &pair_batch);
  EXPECT_EQ(executions.count("1:b,"), 0u);
  EXPECT_EQ(executions["1:a,"], 1u);
  EXPECT_EQ(answered.executed + 1, plain.executed);
  EXPECT_EQ(answered.runs, plain.runs);
  EXPECT_EQ(probe_label(answered.minimal), probe_label(plain.minimal));
  EXPECT_EQ(probe_label(answered.minimal), "1:a,");
  EXPECT_EQ(answered.signature, plain.signature);
}

TEST(ProbeMemoTest, RunsAreIdenticalWithAndWithoutMemo) {
  // Faults b and c each fail "Broken"; above 5 requests they also fail
  // "Slow". Every budget from verification-only up to unbounded must give
  // the same runs and reductions with a memo as without.
  const RunFn scripted = [](const campaign::Experiment& e) {
    std::vector<std::string> failed;
    for (const auto& f : e.failures) {
      if (f.b == "b" || f.b == "c") failed = {"Broken"};
    }
    if (!failed.empty() && e.load.count > 5) failed.push_back("Slow");
    return fake_result(failed);
  };
  const std::vector<campaign::Experiment> failing = {
      faulty_experiment({"a", "b", "c"}, 40),
      faulty_experiment({"a", "b"}, 40),
      faulty_experiment({"b", "c"}, 40),
      faulty_experiment({"a", "c"}, 40),
      faulty_experiment({"c", "b", "a"}, 40),
  };
  for (const size_t max_runs : {1u, 2u, 3u, 4u, 5u, 7u, 10u, 48u}) {
    ShrinkOptions options;
    options.max_runs = max_runs;
    ProbeMemo memo;
    ProbeMemo referenced_memo;
    size_t requested = 0;
    size_t executed = 0;
    for (const auto& e : failing) {
      const ShrinkResult plain = shrink(e, scripted, options);
      const ShrinkResult memoized = shrink(e, scripted, options, &memo);
      // The batch's result as the reference: the same memo contents, one
      // simulated run fewer.
      const campaign::ExperimentResult batch = scripted(e);
      const ShrinkResult referenced =
          shrink(e, scripted, options, &referenced_memo, &batch);
      EXPECT_EQ(referenced.runs, memoized.runs) << max_runs;
      EXPECT_EQ(referenced.executed + 1, memoized.executed) << max_runs;
      EXPECT_EQ(probe_label(referenced.minimal),
                probe_label(memoized.minimal));
      EXPECT_EQ(referenced.signature, memoized.signature);
      EXPECT_EQ(plain.runs, memoized.runs) << max_runs;
      EXPECT_EQ(plain.executed, plain.runs);
      EXPECT_LE(memoized.executed, memoized.runs);
      EXPECT_EQ(probe_label(plain.minimal), probe_label(memoized.minimal));
      EXPECT_EQ(plain.signature, memoized.signature);
      EXPECT_EQ(plain.reproduced, memoized.reproduced);
      EXPECT_EQ(plain.flaky, memoized.flaky);
      requested += memoized.runs;
      executed += memoized.executed;
    }
    if (max_runs >= 3) {
      EXPECT_LT(executed, requested) << max_runs;
    }
  }
}

// ---------------------------------------------------- end-to-end search

control::LoadOptions small_load() {
  control::LoadOptions load;
  load.count = 40;
  load.gap = msec(5);
  return load;
}

TEST(SearchEndToEndTest, RedundantAppYieldsExactMinimalPair) {
  // The acceptance run of ISSUE.md: the redundant app only fails when BOTH
  // replicas are impaired, the audit subtree is never exercised by the
  // baseline workload, and the search must (a) prune at least half the
  // generated k ≤ 2 space from the observed call graph alone and (b) shrink
  // every failure to an exact 2-fault reproducer.
  SearchOptions options;
  options.load = small_load();
  options.seed = 7;
  options.threads = 4;
  const SearchOutcome outcome =
      run_search(campaign::AppSpec::redundant(), options);

  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.baseline_passed);
  // user->frontend, frontend->replica-a, frontend->replica-b; /admin (and
  // with it audit->archive) is never requested.
  EXPECT_EQ(outcome.observed_edges, 3u);

  // 4 edges x 3 edge kinds + 4 services x 2 service kinds.
  EXPECT_EQ(outcome.fault_points, 20u);
  EXPECT_EQ(outcome.generated, 210u);  // C(20,1) + C(20,2)
  EXPECT_EQ(outcome.truncated, 0u);
  EXPECT_GE(outcome.pruned * 2, outcome.generated)
      << "call-graph pruning must remove at least half the space";
  EXPECT_EQ(outcome.pruned + outcome.ran, outcome.generated);
  EXPECT_EQ(outcome.errors, 0u);

  // Every failure is a genuine 2-fault interaction: the replicas mirror
  // each other, so no single fault reaches the user.
  ASSERT_TRUE(outcome.found_failures());
  EXPECT_EQ(outcome.failed, outcome.findings.size());  // all 1-minimal pairs
  for (const auto& f : outcome.findings) {
    EXPECT_FALSE(f.flaky) << f.minimal;
    ASSERT_EQ(f.faults.size(), 2u) << f.minimal;
    EXPECT_EQ(f.signature, "MaxUserFailures(0)");
    EXPECT_EQ(f.seed, 7u);
    EXPECT_EQ(f.load_count, 1u) << "one request suffices once both "
                                   "replicas are down";
    for (const auto& spec : f.faults) {
      EXPECT_TRUE(spec.b == "replica-a" || spec.b == "replica-b")
          << f.minimal;
    }
  }

  // The canonical injected bug is among them, verbatim.
  const bool has_double_abort = std::any_of(
      outcome.findings.begin(), outcome.findings.end(),
      [](const Finding& f) {
        return f.minimal ==
               "abort(frontend->replica-a) + abort(frontend->replica-b)";
      });
  EXPECT_TRUE(has_double_abort);
}

TEST(SearchEndToEndTest, ReplayedFindingReproducesWithReportedSeed) {
  SearchOptions options;
  options.load = small_load();
  options.seed = 11;
  options.threads = 2;
  const SearchOutcome outcome =
      run_search(campaign::AppSpec::redundant(), options);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(outcome.found_failures());

  // Reconstruct the minimal experiment from the finding alone — exactly
  // what an operator replaying a report would do.
  const Finding& f = outcome.findings[0];
  campaign::Experiment replay;
  replay.id = "replay";
  replay.app = campaign::AppSpec::redundant();
  replay.failures = f.faults;
  replay.target = "frontend";
  replay.load = small_load();
  replay.load.count = f.load_count;
  replay.checks = {campaign::CheckSpec::max_user_failures(0)};
  replay.seed = f.seed;
  const campaign::ExperimentResult result =
      campaign::CampaignRunner::run_one(replay);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.passed()) << "minimal reproducer must still fail";
  EXPECT_EQ(control::failure_signature(result.checks), f.signature);
}

TEST(SearchEndToEndTest, PruningNeverChangesTheVerdictSet) {
  // Pruned combinations are exactly the ones that cannot fail: running the
  // full space without the pruner must surface the same minimal
  // reproducers, just more slowly.
  SearchOptions options;
  options.load = small_load();
  options.threads = 4;
  options.shrink = false;  // compare raw failing combinations

  SearchOptions unpruned = options;
  unpruned.prune = false;

  const SearchOutcome fast =
      run_search(campaign::AppSpec::redundant(), options);
  const SearchOutcome full =
      run_search(campaign::AppSpec::redundant(), unpruned);
  ASSERT_TRUE(fast.ok) << fast.error;
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.pruned, 0u);
  EXPECT_EQ(full.ran, full.generated);

  auto failing_labels = [](const SearchOutcome& o) {
    std::set<std::string> labels;
    for (const auto& c : o.combos) {
      if (c.ran && !c.passed && !c.error) labels.insert(c.label);
    }
    return labels;
  };
  EXPECT_EQ(failing_labels(fast), failing_labels(full));
  EXPECT_GT(fast.pruned, 0u);
}

TEST(SearchEndToEndTest, SearchIsDeterministicAcrossThreads) {
  SearchOptions options;
  options.load = small_load();
  options.threads = 1;
  SearchOptions parallel = options;
  parallel.threads = 8;

  const SearchOutcome a = run_search(campaign::AppSpec::redundant(), options);
  const SearchOutcome b =
      run_search(campaign::AppSpec::redundant(), parallel);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].minimal, b.findings[i].minimal);
    EXPECT_EQ(a.findings[i].signature, b.findings[i].signature);
    EXPECT_EQ(a.findings[i].load_count, b.findings[i].load_count);
  }
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.failed, b.failed);
}

// run_search's pipeline re-composed from its public parts, shrinking every
// failure on fresh worlds with shrink()'s verification re-run, with no memo
// or with one shared memo, which `seed_from_batch` fills with every batch
// result before the first shrink.
SearchOutcome composed_search(const campaign::AppSpec& app,
                              const SearchOptions& options, bool memoize,
                              bool seed_from_batch = false) {
  SearchOutcome outcome;
  const topology::AppGraph graph = app.probe_graph();
  const std::string target = campaign::load_target(
      graph, options.client, options.target, options.generator.exclude);
  const std::vector<FaultPoint> points =
      enumerate_fault_points(graph, options.generator, {options.client,
                                                         target});
  const std::vector<Combination> combos =
      generate_combinations(points, options.generator, &outcome.truncated);
  outcome.fault_points = points.size();
  outcome.generated = combos.size();

  auto experiment = [&](const std::string& id,
                        std::vector<control::FailureSpec> faults) {
    campaign::Experiment e;
    e.id = id;
    e.app = app;
    e.failures = std::move(faults);
    e.client = options.client;
    e.target = target;
    e.load = options.load;
    e.checks = {campaign::CheckSpec::max_user_failures(0)};
    e.seed = options.seed;
    return e;
  };
  const Baseline baseline = run_baseline(experiment("", {}));
  std::vector<campaign::Experiment> experiments;
  for (const Combination& combo : combos) {
    if (!decide(points, combo, baseline.call_graph).keep()) {
      ++outcome.pruned;
      continue;
    }
    std::vector<control::FailureSpec> faults;
    for (const size_t p : combo.points) faults.push_back(points[p].spec);
    experiments.push_back(experiment(combo.label, std::move(faults)));
  }
  campaign::RunnerOptions runner_options;
  runner_options.threads = 2;
  runner_options.keep_latencies = false;
  const campaign::CampaignResult batch =
      campaign::CampaignRunner(runner_options).run(experiments);
  outcome.ran = batch.experiments.size();

  campaign::ExecOptions exec;
  exec.keep_latencies = false;
  const RunFn probe = [&exec](const campaign::Experiment& e) {
    return campaign::CampaignRunner::run_one(e, exec);
  };
  std::map<std::string, size_t> finding_index;
  ProbeMemo memo;
  if (memoize && seed_from_batch) {
    for (size_t i = 0; i < batch.experiments.size(); ++i) {
      memo.record(experiments[i], batch.experiments[i]);
    }
  }
  for (size_t i = 0; i < batch.experiments.size(); ++i) {
    const campaign::ExperimentResult& r = batch.experiments[i];
    if (!r.ok) {
      ++outcome.errors;
      continue;
    }
    if (r.passed()) {
      ++outcome.passed;
      continue;
    }
    ++outcome.failed;
    const ShrinkResult shrunk =
        shrink(experiments[i], probe, options.shrink_options,
               memoize ? &memo : nullptr);
    outcome.shrink_runs += shrunk.runs;
    outcome.shrink_executed += shrunk.executed;
    Finding f;
    f.combination = r.id;
    f.seed = r.seed;
    f.flaky = shrunk.flaky;
    f.signature = shrunk.signature;
    f.shrink_runs = shrunk.runs;
    f.load_count = shrunk.minimal.load.count;
    f.faults_before = experiments[i].failures.size();
    for (const auto& spec : shrunk.minimal.failures) {
      if (!f.minimal.empty()) f.minimal += " + ";
      f.minimal += describe(spec);
    }
    if (f.flaky) f.minimal = "(flaky) " + f.combination;
    const auto [it, fresh] =
        finding_index.emplace(f.minimal, outcome.findings.size());
    if (fresh) {
      outcome.findings.push_back(std::move(f));
    } else {
      ++outcome.findings[it->second].occurrences;
    }
  }
  outcome.ok = true;
  return outcome;
}

// run_search shrinks from the batch's result with a shared memo seeded by
// the batch, then replays each reproducer cold. Against the composed
// memo-less search it must find the same reproducers with the same
// requested runs; against the composed search with a batch-seeded memo it
// must simulate exactly one probe fewer per failing combination: the
// verification re-run the batch result replaces.
TEST(SearchEndToEndTest, MemoizedShrinkingMatchesPlainShrinking) {
  size_t cases_where_seeding_saved = 0;
  struct Case {
    campaign::AppSpec app;
    uint64_t seed;
  };
  const std::vector<Case> cases = {
      {campaign::AppSpec::redundant(), 7},
      {campaign::AppSpec::named("mega:2x2").value(), 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.app.name);
    SearchOptions options;
    options.load = small_load();
    options.seed = c.seed;
    options.threads = 2;
    options.generator.max_k = 2;

    // A memo keyed on describe() labels would merge two such points.
    const topology::AppGraph graph = c.app.probe_graph();
    const std::string target = campaign::load_target(
        graph, options.client, options.target, options.generator.exclude);
    std::set<std::string> labels;
    for (const FaultPoint& p : enumerate_fault_points(
             graph, options.generator, {options.client, target})) {
      EXPECT_TRUE(labels.insert(describe(p.spec)).second)
          << "two fault points share the label " << describe(p.spec);
    }

    const SearchOutcome memoized = run_search(c.app, options);
    const SearchOutcome plain = composed_search(c.app, options, false);
    const SearchOutcome verified = composed_search(c.app, options, true);
    const SearchOutcome seeded = composed_search(c.app, options, true, true);
    ASSERT_TRUE(memoized.ok) << memoized.error;
    ASSERT_TRUE(memoized.found_failures());
    EXPECT_EQ(memoized.shrink_executed,
              seeded.shrink_executed - memoized.failed);
    EXPECT_LE(seeded.shrink_executed, verified.shrink_executed);
    if (seeded.shrink_executed < verified.shrink_executed) {
      ++cases_where_seeding_saved;
    }
    EXPECT_EQ(verified.shrink_runs, plain.shrink_runs);
    EXPECT_EQ(seeded.shrink_runs, plain.shrink_runs);
    EXPECT_EQ(memoized.verify_runs, memoized.findings.size());

    EXPECT_EQ(memoized.fault_points, plain.fault_points);
    EXPECT_EQ(memoized.generated, plain.generated);
    EXPECT_EQ(memoized.truncated, plain.truncated);
    EXPECT_EQ(memoized.pruned, plain.pruned);
    EXPECT_EQ(memoized.ran, plain.ran);
    EXPECT_EQ(memoized.passed, plain.passed);
    EXPECT_EQ(memoized.failed, plain.failed);
    EXPECT_EQ(memoized.errors, plain.errors);
    EXPECT_EQ(memoized.shrink_runs, plain.shrink_runs);
    EXPECT_EQ(plain.shrink_executed, plain.shrink_runs);
    EXPECT_GT(memoized.shrink_executed, 0u);
    EXPECT_LT(memoized.shrink_executed, memoized.shrink_runs);

    ASSERT_EQ(memoized.findings.size(), plain.findings.size());
    for (size_t i = 0; i < plain.findings.size(); ++i) {
      const Finding& m = memoized.findings[i];
      const Finding& p = plain.findings[i];
      EXPECT_EQ(m.combination, p.combination);
      EXPECT_EQ(m.minimal, p.minimal);
      EXPECT_EQ(m.seed, p.seed);
      EXPECT_EQ(m.load_count, p.load_count) << m.minimal;
      EXPECT_EQ(m.signature, p.signature) << m.minimal;
      EXPECT_EQ(m.flaky, p.flaky) << m.minimal;
      EXPECT_EQ(m.shrink_runs, p.shrink_runs) << m.minimal;
      EXPECT_EQ(m.faults_before, p.faults_before) << m.minimal;
      EXPECT_EQ(m.occurrences, p.occurrences) << m.minimal;
    }
    ASSERT_EQ(seeded.findings.size(), plain.findings.size());
    for (size_t i = 0; i < plain.findings.size(); ++i) {
      EXPECT_EQ(seeded.findings[i].minimal, plain.findings[i].minimal);
      EXPECT_EQ(seeded.findings[i].signature, plain.findings[i].signature);
      EXPECT_EQ(seeded.findings[i].shrink_runs,
                plain.findings[i].shrink_runs);
    }
  }
  // At least one case has a failing pair whose passing single fault the
  // batch already ran.
  EXPECT_GT(cases_where_seeding_saved, 0u);
}

// Seeded nondeterminism: a replay runner that disagrees with the search on
// exactly one reproducer, by its verdict or by its failure signature.
TEST(VerifyReproducersTest, OneDisagreeingReplayMarksExactlyThatFinding) {
  campaign::Experiment base = faulty_experiment({}, /*load_count=*/40);
  base.seed = 3;
  auto finding = [](const std::string& dst, size_t load_count) {
    Finding f;
    f.faults = {control::FailureSpec::abort_edge("x", dst)};
    f.minimal = describe(f.faults[0]);
    f.seed = 9;
    f.load_count = load_count;
    f.signature = "Broken";
    return f;
  };
  SearchOutcome searched;
  searched.findings = {finding("a", 1), finding("b", 5), finding("c", 40)};
  searched.findings.push_back(finding("d", 40));
  searched.findings.back().flaky = true;  // the shrink's reference passed

  struct Case {
    const char* name;
    campaign::ExperimentResult odd;  // what the runner returns for x->b
  };
  const std::vector<Case> cases = {
      {"verdict flips", fake_result({})},
      {"signature changes", fake_result({"Broken", "Slow"})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> replayed;
    const RunFn flips_b = [&](const campaign::Experiment& e) {
      replayed.push_back(probe_label(e));
      EXPECT_EQ(e.seed, 9u);
      EXPECT_EQ(e.target, base.target);
      return e.failures[0].b == "b" ? c.odd : fake_result({"Broken"});
    };
    SearchOutcome outcome = searched;
    verify_reproducers(base, flips_b, &outcome);
    EXPECT_EQ(outcome.verify_runs, 3u);
    EXPECT_EQ(replayed,
              (std::vector<std::string>{"1:a,", "5:b,", "40:c,"}));
    EXPECT_FALSE(outcome.findings[0].flaky);
    EXPECT_TRUE(outcome.findings[1].flaky);
    EXPECT_FALSE(outcome.findings[2].flaky);
    EXPECT_TRUE(outcome.findings[3].flaky);
  }
}

TEST(SearchEndToEndTest, BaselineCheckViolationAbortsTheSearch) {
  // A baseline that fails its own assertions makes every verdict
  // meaningless; the search must refuse to continue rather than report
  // phantom findings.
  SearchOptions options;
  options.load = small_load();
  options.checks = {
      campaign::CheckSpec::has_latency_slo("user", "frontend", 99, usec(1),
                                           /*with_rule=*/false)};
  const SearchOutcome outcome =
      run_search(campaign::AppSpec::redundant(), options);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("baseline"), std::string::npos);
  EXPECT_TRUE(outcome.findings.empty());
}

// ---------------------------------------------------------------- report

TEST(SearchReportTest, RendersFunnelAndReproducers) {
  SearchOptions options;
  options.load = small_load();
  options.seed = 7;
  options.threads = 2;
  const SearchOutcome outcome =
      run_search(campaign::AppSpec::redundant(), options);
  ASSERT_TRUE(outcome.ok);

  const report::SearchReport rep =
      report::build_search_report(outcome, "redundant");
  EXPECT_FALSE(rep.clean());

  const Json j = rep.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j["app"].as_string(), "redundant");
  EXPECT_EQ(j["space"]["generated"].as_int(), 210);
  EXPECT_GT(j["findings"].size(), 0u);
  EXPECT_EQ(j["combinations"].size(), 210u);
  EXPECT_EQ(j["space"]["shrink_runs"].as_int(),
            static_cast<int64_t>(outcome.shrink_runs));
  EXPECT_EQ(j["space"]["shrink_executed"].as_int(),
            static_cast<int64_t>(outcome.shrink_executed));
  // One cold replay per reproducer; none of them is flaky here.
  EXPECT_EQ(j["space"]["verify_runs"].as_int(),
            static_cast<int64_t>(outcome.findings.size()));
  EXPECT_EQ(outcome.verify_runs, outcome.findings.size());

  const std::string md = rep.to_markdown();
  EXPECT_NE(md.find("Search funnel"), std::string::npos);
  EXPECT_NE(md.find("Minimal reproducers"), std::string::npos);
  EXPECT_NE(md.find("replay: seed 7"), std::string::npos);
  EXPECT_NE(md.find("| shrink probes | " +
                    std::to_string(outcome.shrink_runs) + " requested, " +
                    std::to_string(outcome.shrink_executed) + " simulated |"),
            std::string::npos);
  EXPECT_NE(md.find("| cold reproducer replays | " +
                    std::to_string(outcome.verify_runs) + " |"),
            std::string::npos);
  EXPECT_EQ(md.find("FLAKY"), std::string::npos);

  // A finding the cold replay disowned says so.
  SearchOutcome disowned = outcome;
  disowned.findings[0].flaky = true;
  EXPECT_NE(report::build_search_report(disowned, "redundant")
                .to_markdown()
                .find("FLAKY (did not reproduce on a cold replay)"),
            std::string::npos);
}

}  // namespace
}  // namespace gremlin::search
