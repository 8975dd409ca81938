// Fault-space search: how much simulation time does dependency-aware
// pruning buy?
//
// Setup: the redundant seeded-bug app (docs/SEARCH.md) whose baseline
// workload exercises only 3 of 5 call edges — the audit subtree is dead
// code on the hot path. We run the full k <= 2 search twice, with and
// without the observed-call-graph pruner, and report wall clock, the
// fraction of the generated space pruned, and the per-stage funnel. The
// verdict sets must agree: pruning may only remove combinations that could
// not have failed.
//
// Shape expectations: the pruner replaces ~74% of the generated space with
// one baseline replay, so wall clock drops roughly proportionally (the
// surviving combinations dominate; shrinking is disabled to keep the
// comparison clean). Micro-benchmarks isolate the non-simulating pieces:
// enumeration, pruning decisions, and call-graph extraction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>
#include <string>

#include "bench_json.h"
#include "campaign/app_spec.h"
#include "search/pruner.h"
#include "search/search.h"

namespace {

using namespace gremlin;  // NOLINT

search::SearchOptions bench_options(bool prune) {
  search::SearchOptions options;
  options.load.count = 40;
  options.load.gap = msec(5);
  options.threads = 4;
  options.prune = prune;
  options.shrink = false;  // measure the pruning win, not ddmin runs
  return options;
}

std::set<std::string> failing_labels(const search::SearchOutcome& outcome) {
  std::set<std::string> labels;
  for (const auto& c : outcome.combos) {
    if (c.ran && !c.passed && !c.error) labels.insert(c.label);
  }
  return labels;
}

void pruning_section() {
  const campaign::AppSpec app = campaign::AppSpec::redundant();
  std::printf("## Search funnel with vs without pruning (app=redundant)\n");

  auto& rows = benchjson::Rows::instance();
  search::SearchOutcome pruned;
  search::SearchOutcome exhaustive;
  for (const bool prune : {true, false}) {
    const search::SearchOutcome outcome =
        search::run_search(app, bench_options(prune));
    if (!outcome.ok) {
      std::printf("search error: %s\n", outcome.error.c_str());
      std::exit(1);
    }
    const double wall_s = to_seconds(outcome.wall_clock);
    std::printf(
        "prune=%-3s  generated=%zu  pruned=%zu (%.1f%%)  ran=%zu  "
        "failed=%zu  wall=%.3fs\n",
        prune ? "yes" : "no", outcome.generated, outcome.pruned,
        outcome.generated
            ? 100.0 * static_cast<double>(outcome.pruned) /
                  static_cast<double>(outcome.generated)
            : 0.0,
        outcome.ran, outcome.failed, wall_s);
    const std::string name =
        std::string("search_pruning/prune=") + (prune ? "on" : "off");
    rows.add(name, "wall", wall_s, "s");
    rows.add(name, "combinations_run", static_cast<double>(outcome.ran),
             "1");
    (prune ? pruned : exhaustive) = outcome;
  }

  const bool same_verdicts =
      failing_labels(pruned) == failing_labels(exhaustive);
  const double pruned_s = to_seconds(pruned.wall_clock);
  const double full_s = to_seconds(exhaustive.wall_clock);
  std::printf("verdicts-identical=%s  speedup=%.2fx\n\n",
              same_verdicts ? "yes" : "NO (PRUNER BUG)",
              pruned_s > 0 ? full_s / pruned_s : 0.0);
  if (!same_verdicts) std::exit(1);
  rows.add("search_pruning", "speedup",
           pruned_s > 0 ? full_s / pruned_s : 0.0, "x");
  rows.add("search_pruning", "pruned_fraction",
           pruned.generated
               ? static_cast<double>(pruned.pruned) /
                     static_cast<double>(pruned.generated)
               : 0.0,
           "1");
}

void BM_EnumerateAndGenerate(benchmark::State& state) {
  const campaign::AppSpec app = campaign::AppSpec::redundant();
  const topology::AppGraph graph = app.probe_graph();
  search::GeneratorOptions options;
  options.max_k = static_cast<int>(state.range(0));
  options.max_combinations = 0;
  for (auto _ : state) {
    const auto points =
        search::enumerate_fault_points(graph, options, {"user", "frontend"});
    auto combos = search::generate_combinations(points, options);
    benchmark::DoNotOptimize(combos);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnumerateAndGenerate)->Arg(2)->Arg(3);

void BM_PruneDecisions(benchmark::State& state) {
  // Decision throughput over the full k<=2 space against a real baseline
  // call graph (pure set intersections, no simulation).
  const campaign::AppSpec app = campaign::AppSpec::redundant();
  const topology::AppGraph graph = app.probe_graph();
  search::GeneratorOptions options;
  const auto points =
      search::enumerate_fault_points(graph, options, {"user", "frontend"});
  const auto combos = search::generate_combinations(points, options);

  campaign::Experiment baseline_exp;
  baseline_exp.id = "baseline";
  baseline_exp.app = app;
  baseline_exp.target = "frontend";
  baseline_exp.load.count = 40;
  baseline_exp.load.gap = msec(5);
  const search::Baseline baseline = search::run_baseline(baseline_exp);

  for (auto _ : state) {
    size_t kept = 0;
    for (const auto& combo : combos) {
      if (search::decide(points, combo, baseline.call_graph).keep()) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(combos.size()));
}
BENCHMARK(BM_PruneDecisions);

void BM_CallGraphExtraction(benchmark::State& state) {
  // Cost of one LogStore::call_graph() over a baseline run's records.
  const campaign::AppSpec app = campaign::AppSpec::redundant();
  campaign::Experiment baseline_exp;
  baseline_exp.id = "baseline";
  baseline_exp.app = app;
  baseline_exp.target = "frontend";
  baseline_exp.load.count = 200;
  baseline_exp.load.gap = msec(5);
  sim::SimulationConfig cfg;
  cfg.seed = baseline_exp.seed;
  sim::Simulation sim(cfg);
  campaign::ExecOptions exec;  // full run, log kept for the call graph
  exec.keep_latencies = false;
  exec.early_exit = false;
  exec.preserve_log = true;
  auto result = campaign::CampaignRunner::run_in(baseline_exp, &sim, exec);
  benchmark::DoNotOptimize(result);

  for (auto _ : state) {
    auto graph = sim.log_store().call_graph();
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallGraphExtraction);

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  auto& rows = benchjson::Rows::instance();
  rows.parse_args(&argc, argv);
  std::printf("# Fault-space search — dependency-aware pruning\n\n");
  pruning_section();
  benchjson::run_registered_benchmarks(&argc, argv);
  return rows.write() ? 0 : 1;
}
