// FaultSpaceSearch: the `gremlin search` pipeline.
//
//   enumerate fault points  →  generate k ≤ 3 combinations (budgeted,
//   optionally pairwise-covering)  →  replay the fault-free baseline and
//   prune combinations the observed call graph rules out  →  run the
//   survivors in parallel on the campaign engine  →  shrink every failure
//   to a locally-minimal reproducer with a replayable seed, starting from
//   the batch's own result (one ProbeMemo per search, seeded with every
//   batch result, answers reduction probes that the batch or an earlier
//   shrink already ran)  →  replay each distinct minimal
//   reproducer once on a fresh world and mark it flaky unless it fails
//   the same way.
//
// The output is a SearchOutcome: the funnel counters (generated / pruned /
// run / failed), per-combination verdicts, and deduplicated minimal
// reproducers. report::build_search_report turns it into JSON/Markdown.
#pragma once

#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "search/combinations.h"
#include "search/pruner.h"
#include "search/shrinker.h"

namespace gremlin::search {

struct SearchOptions {
  GeneratorOptions generator;

  control::LoadOptions load;   // load shape for baseline and experiments
  std::string client = "user";
  std::string target;          // empty → first non-excluded entry point

  // Checks attached to every experiment (and the baseline). Empty → the
  // canonical sweep verdict: no user-visible failures.
  std::vector<campaign::CheckSpec> checks;

  uint64_t seed = 42;
  int threads = 0;        // campaign workers; 0 = hardware concurrency
  // Worker processes for the combination campaign (multi-process sharding,
  // campaign/process_pool.h). Baseline replay, shrink probes and the cold
  // reproducer replays stay in-process and sequential; the probes reuse one
  // kept-alive world. Findings are identical at any procs count.
  int procs = 1;
  bool prune = true;      // false: run every generated combination
  bool shrink = true;     // false: report failures unshrunk

  // Online checking with early-verdict termination for every combination
  // run and every shrink probe (verdict-preserving; see RunnerOptions).
  // The baseline replay always runs to quiescence — pruning needs the
  // complete observed call graph.
  bool early_exit = true;

  // Warm-world execution for the baseline replay, the campaign batch, and
  // every shrink probe (byte-identical results; see RunnerOptions). The
  // baseline's world is kept alive and reused by the shrink probes. The
  // reproducer replays always run cold.
  bool warm = true;
  ShrinkOptions shrink_options;
};

// Per-combination verdict row (report fodder).
struct ComboOutcome {
  std::string label;
  size_t k = 0;
  PruneVerdict verdict = PruneVerdict::kKeep;
  std::string prune_detail;  // set when pruned
  bool ran = false;
  bool passed = false;   // ran and every check passed
  bool error = false;    // infrastructure error
};

// One distinct minimal reproducer.
struct Finding {
  std::string combination;   // first failing combination that produced it
  std::string minimal;       // labels of the minimal fault set
  std::vector<control::FailureSpec> faults;  // the minimal fault set itself
  uint64_t seed = 0;         // replays deterministically with this seed
  size_t load_count = 0;     // shrunk request count
  std::string signature;     // failing checks (control::failure_signature)
  bool flaky = false;        // did not fail the same way on a cold replay
  size_t shrink_runs = 0;
  size_t faults_before = 0;
  size_t occurrences = 1;    // failing combinations that shrank to this
};

struct SearchOutcome {
  bool ok = false;       // search infrastructure worked end to end
  std::string error;     // set when !ok (e.g. the baseline itself fails)
  std::string app;
  uint64_t seed = 0;
  int threads = 1;
  int procs = 1;  // worker processes used by the combination campaign

  // Baseline replay.
  bool baseline_passed = false;
  size_t baseline_requests = 0;
  size_t observed_edges = 0;
  size_t observed_paths = 0;

  // The funnel.
  size_t fault_points = 0;
  size_t generated = 0;   // combinations enumerated (after budget)
  size_t truncated = 0;   // combinations dropped by the budget cap
  size_t pruned = 0;
  size_t pruned_unreachable = 0;
  size_t pruned_no_shared_path = 0;
  size_t ran = 0;
  size_t passed = 0;
  size_t failed = 0;
  size_t errors = 0;
  size_t shrink_runs = 0;  // probes requested (memo hits included)
  size_t shrink_executed = 0;  // probes simulated (repeats answered by memo)
  size_t verify_runs = 0;  // cold replays, one per non-flaky reproducer

  std::vector<ComboOutcome> combos;   // generation order
  std::vector<Finding> findings;      // distinct minimal reproducers
  Duration wall_clock{};

  bool found_failures() const { return !findings.empty(); }
};

SearchOutcome run_search(const campaign::AppSpec& app,
                         const SearchOptions& options = {});

// The determinism check run_search ends with: replays each non-flaky
// finding once through `run`, as `base` (app, client, target, load shape,
// checks) with the finding's faults, seed and load count, and marks it
// flaky unless the replay fails with the finding's signature. Sets
// outcome->verify_runs to the number of replays.
void verify_reproducers(const campaign::Experiment& base, const RunFn& run,
                        SearchOutcome* outcome);

}  // namespace gremlin::search
