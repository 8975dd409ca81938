#include "search/search.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "campaign/execution_context.h"
#include "campaign/warm_world.h"

namespace gremlin::search {

namespace {

campaign::Experiment make_experiment(const campaign::AppSpec& app,
                                     const std::vector<FaultPoint>& points,
                                     const Combination& combo,
                                     const SearchOptions& options,
                                     const std::string& target,
                                     const std::vector<campaign::CheckSpec>&
                                         checks) {
  campaign::Experiment e;
  e.id = combo.label;
  e.app = app;
  for (const size_t index : combo.points) {
    e.failures.push_back(points[index].spec);
  }
  e.client = options.client;
  e.target = target;
  e.load = options.load;
  e.checks = checks;
  e.seed = options.seed;
  return e;
}

}  // namespace

SearchOutcome run_search(const campaign::AppSpec& app,
                         const SearchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SearchOutcome outcome;
  outcome.app = app.name;
  outcome.seed = options.seed;

  const topology::AppGraph graph = app.probe_graph();
  const std::string target = campaign::load_target(
      graph, options.client, options.target, options.generator.exclude);
  if (target.empty()) {
    outcome.error = "no load target: graph has no entry point";
    return outcome;
  }

  std::vector<campaign::CheckSpec> checks = options.checks;
  if (checks.empty()) {
    checks.push_back(campaign::CheckSpec::max_user_failures(0));
  }

  // Fault space: the client and load target are excluded exactly as in the
  // single-fault sweep (faulting the front door is trivially user-visible).
  std::set<std::string> excluded = {options.client, target};
  const std::vector<FaultPoint> points =
      enumerate_fault_points(graph, options.generator, excluded);
  outcome.fault_points = points.size();

  size_t truncated = 0;
  const std::vector<Combination> combos =
      generate_combinations(points, options.generator, &truncated);
  outcome.generated = combos.size();
  outcome.truncated = truncated;

  // Baseline replay: verdict reference plus the observed call graph. In
  // warm mode the baseline's deployment stays alive — the shrink probes
  // below reset and reuse it instead of rebuilding per probe. The search
  // thread runs them inside its own ExecutionContext (shard interning,
  // pooled allocation), exactly like a campaign worker; the campaign batch
  // in between binds fresh per-worker contexts of its own.
  campaign::ExecutionContext search_ctx(options.warm);
  ScopedShardSymbols bind_symbols(&search_ctx.symbols());
  campaign::WarmWorld* world =
      options.warm ? search_ctx.world_for(app) : nullptr;
  Combination empty_combo;
  const campaign::Experiment baseline_experiment =
      make_experiment(app, points, empty_combo, options, target, checks);
  const Baseline baseline = world ? run_baseline(baseline_experiment, world)
                                  : run_baseline(baseline_experiment);
  search_ctx.merge();  // result boundary: baseline names are global now
  outcome.baseline_passed = baseline.result.passed();
  outcome.baseline_requests = baseline.result.requests;
  outcome.observed_edges = baseline.call_graph.edges.size();
  outcome.observed_paths = baseline.call_graph.paths.size();
  if (!baseline.result.ok) {
    outcome.error = "baseline run failed: " + baseline.result.error;
    return outcome;
  }
  if (!outcome.baseline_passed) {
    outcome.error =
        "baseline violates its own checks (" +
        control::failure_signature(baseline.result.checks) +
        "); fix the app or the checks before searching for fault-induced "
        "failures";
    return outcome;
  }

  // Prune, then materialize the survivors.
  outcome.combos.reserve(combos.size());
  std::vector<campaign::Experiment> experiments;
  std::vector<size_t> experiment_combo;  // experiment -> combo row index
  for (const Combination& combo : combos) {
    ComboOutcome row;
    row.label = combo.label;
    row.k = combo.points.size();
    if (options.prune) {
      const PruneDecision decision =
          decide(points, combo, baseline.call_graph);
      row.verdict = decision.verdict;
      row.prune_detail = decision.detail;
    }
    if (row.verdict == PruneVerdict::kKeep) {
      experiments.push_back(
          make_experiment(app, points, combo, options, target, checks));
      experiment_combo.push_back(outcome.combos.size());
    } else {
      ++outcome.pruned;
      if (row.verdict == PruneVerdict::kUnreachableFault) {
        ++outcome.pruned_unreachable;
      } else {
        ++outcome.pruned_no_shared_path;
      }
    }
    outcome.combos.push_back(std::move(row));
  }

  campaign::RunnerOptions runner_options;
  runner_options.threads = options.threads;
  runner_options.procs = options.procs;
  runner_options.keep_latencies = false;
  runner_options.early_exit = options.early_exit;
  runner_options.warm_worlds = options.warm;
  const campaign::CampaignRunner runner(runner_options);
  const campaign::CampaignResult campaign = runner.run(experiments);
  outcome.threads = campaign.threads;
  outcome.procs = campaign.procs;
  outcome.ran = campaign.experiments.size();

  // Shrink failures to minimal reproducers, deduplicated by the minimal
  // fault set (many combinations typically collapse onto one bug).
  std::map<std::string, size_t> finding_index;
  // Every probe below and every batch experiment share app, seed, checks,
  // client, target and exec options, so one memo is exact for this call
  // and for no other.
  ProbeMemo memo;
  if (options.shrink) {
    // The batch ran every combination with the probes' exec options, so its
    // results answer the reductions that are combinations themselves (a
    // failing pair's passing single fault, above all).
    for (size_t i = 0; i < campaign.experiments.size(); ++i) {
      memo.record(experiments[i], campaign.experiments[i]);
    }
  }
  for (size_t i = 0; i < campaign.experiments.size(); ++i) {
    const campaign::ExperimentResult& r = campaign.experiments[i];
    ComboOutcome& row = outcome.combos[experiment_combo[i]];
    row.ran = true;
    if (!r.ok) {
      row.error = true;
      ++outcome.errors;
      continue;
    }
    if (r.passed()) {
      row.passed = true;
      ++outcome.passed;
      continue;
    }
    ++outcome.failed;

    Finding finding;
    finding.combination = r.id;
    finding.seed = r.seed;
    finding.faults_before = experiments[i].failures.size();
    if (options.shrink) {
      campaign::ExecOptions shrink_exec;
      shrink_exec.keep_latencies = false;
      shrink_exec.early_exit = options.early_exit;
      // The batch result is the shrink's reference: the batch ran this
      // experiment with the probes' options, so a re-run could only repeat
      // it. verify_reproducers below checks determinism instead.
      ShrinkResult shrunk = shrink(
          experiments[i],
          [&shrink_exec, &world](const campaign::Experiment& e) {
            // Probes run sequentially after the campaign batch; reusing the
            // baseline's warm world here amortizes construction across the
            // whole shrink budget.
            return world ? world->run(e, shrink_exec)
                         : campaign::CampaignRunner::run_one(e, shrink_exec);
          },
          options.shrink_options, &memo, &r);
      outcome.shrink_runs += shrunk.runs;
      outcome.shrink_executed += shrunk.executed;
      finding.flaky = shrunk.flaky;
      finding.signature = shrunk.signature;
      finding.shrink_runs = shrunk.runs;
      finding.load_count = shrunk.minimal.load.count;
      finding.faults = shrunk.minimal.failures;
    } else {
      finding.signature = control::failure_signature(r.checks);
      finding.load_count = experiments[i].load.count;
      finding.faults = experiments[i].failures;
    }
    std::string minimal;
    for (const auto& spec : finding.faults) {
      if (!minimal.empty()) minimal += " + ";
      minimal += describe(spec);
    }
    finding.minimal = finding.flaky ? "(flaky) " + finding.combination
                                    : minimal;

    const auto it = finding_index.find(finding.minimal);
    if (it != finding_index.end()) {
      ++outcome.findings[it->second].occurrences;
    } else {
      finding_index.emplace(finding.minimal, outcome.findings.size());
      outcome.findings.push_back(std::move(finding));
    }
  }

  if (options.shrink) {
    // Every failing combination is its own finding without shrinking, and
    // its batch result already is a run of it; replays pay off only here.
    campaign::ExecOptions replay_exec;
    replay_exec.keep_latencies = false;
    replay_exec.early_exit = options.early_exit;
    replay_exec.preserve_log = true;
    verify_reproducers(
        baseline_experiment,
        [&replay_exec](const campaign::Experiment& e) {
          return campaign::CampaignRunner::run_one(e, replay_exec);
        },
        &outcome);
  }

  outcome.ok = true;
  outcome.wall_clock = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return outcome;
}

void verify_reproducers(const campaign::Experiment& base, const RunFn& run,
                        SearchOutcome* outcome) {
  outcome->verify_runs = 0;
  for (Finding& finding : outcome->findings) {
    if (finding.flaky) continue;
    campaign::Experiment replay = base;
    replay.id = finding.minimal;
    replay.failures = finding.faults;
    replay.seed = finding.seed;
    replay.load.count = finding.load_count;
    const campaign::ExperimentResult r = run(replay);
    ++outcome->verify_runs;
    finding.flaky = !r.ok || r.passed() ||
                    control::failure_signature(r.checks) != finding.signature;
  }
}

}  // namespace gremlin::search
