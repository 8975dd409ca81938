// Failing-scenario shrinking: delta debugging over an experiment's fault
// set and sweep parameters.
//
// A failing k-fault experiment is rarely a minimal explanation — often a
// single member fault (or a smaller load) reproduces the same assertion
// violations. The shrinker re-runs candidate reductions deterministically
// (same app spec, same seed) and keeps a reduction only when it reproduces
// the *same failure mode*: experiment still runs, still fails, and
// control::failure_signature of its check verdicts is unchanged — so a bug
// is never "shrunk" into a different bug. Reductions tried, in order:
//
//   1. Fault-set minimization to 1-minimality (ddmin-style: repeatedly drop
//      one fault while the failure persists; at k ≤ 3 single drops reach
//      1-minimality in O(k²) runs).
//   2. Load shrinking: halve the request count while the failure persists.
//
// Every reduction is compared against one reference run of the failing
// experiment. run_search passes the campaign batch's own result for it;
// without one the shrinker executes a verification re-run. A reference
// that does not fail is reported as flaky (`flaky = true`) and the input
// is returned unshrunk rather than looping.
//
// Many shrinks in one search probe the same reductions (every failing pair
// sharing a fault probes that fault alone), and many reductions are
// combinations the campaign batch already ran. A ProbeMemo shared across
// those shrinks, and seeded by run_search with every batch result, answers
// such a candidate without simulating it. The shrinker holds its current
// reduction as indices into the failing experiment's faults plus a load
// count and keys probes by per-fault ids, so a memo hit costs one key
// lookup; an Experiment is built only for a probe that executes.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <unordered_map>

#include "campaign/experiment.h"
#include "campaign/runner.h"

namespace gremlin::search {

// How candidates are executed. Defaults to CampaignRunner::run_one; tests
// script fake runners to exercise the algorithm without a simulator.
using RunFn =
    std::function<campaign::ExperimentResult(const campaign::Experiment&)>;

struct ShrinkOptions {
  // Total run budget, counting the reference run (supplied or re-run) as
  // one. The shrinker returns the best reduction found when the budget is
  // exhausted.
  size_t max_runs = 48;

  bool shrink_load = true;
  size_t min_load = 1;  // never shrink below this many requests
};

// Exact memo of probe outcomes, keyed on (seed, load count, ordered fault
// list). Valid only across experiments that agree on every other field —
// app, client, target, load shape, checks — and run with the same exec
// options, as every probe of one run_search call and its campaign batch
// do; then the determinism contract makes a probe's outcome a function of
// the key. Fault order is part of the key because rule installation order
// decides first-match-wins and the per-rule RNG streams. Faults are keyed
// by FailureSpec::fingerprint, never by their describe() labels, which omit
// fields; each distinct fingerprint gets a dense id (fault_id) and keys
// carry the ids. Stores only what shrinking compares, so memory stays flat.
class ProbeMemo {
 public:
  struct Outcome {
    bool ok = false;
    bool passed = false;
    std::string signature;  // control::failure_signature when failing
  };

  // The recorded outcome of `e`, or nullptr when it has not run.
  const Outcome* find(const campaign::Experiment& e);
  void record(const campaign::Experiment& e,
              const campaign::ExperimentResult& result);

  // The dense id of `spec`'s fingerprint, assigned on first sight and
  // stable for the memo's lifetime.
  size_t fault_id(const control::FailureSpec& spec);

  // The key of an experiment with this seed, load count and ordered fault
  // ids: find(e) and record(e, ...) use key(e.seed, e.load.count, ids of
  // e.failures), so both forms address the same entries.
  static std::string key(uint64_t seed, size_t load_count,
                         std::span<const size_t> fault_ids);
  const Outcome* find(const std::string& key) const;
  void record(std::string key, const campaign::ExperimentResult& result);

 private:
  std::string key(const campaign::Experiment& e);

  std::unordered_map<std::string, size_t> fault_ids_;  // fingerprint → id
  std::unordered_map<std::string, Outcome> outcomes_;
};

struct ShrinkResult {
  campaign::Experiment minimal;  // locally-minimal reproducer (or the input)
  bool reproduced = false;       // the reference run failed as expected
  bool flaky = false;            // it passed instead: not deterministic
  std::string signature;         // preserved failure signature
  size_t runs = 0;               // probes requested, memo hits included
  size_t executed = 0;           // probes actually simulated (<= runs)
  size_t faults_before = 0;
  size_t faults_after = 0;
  size_t load_before = 0;
  size_t load_after = 0;

  // True when no reduction survived: the input was already 1-minimal.
  bool already_minimal() const {
    return reproduced && faults_after == faults_before &&
           load_after == load_before;
  }
};

// Shrinks `failing` (an experiment whose run failed at least one check).
// `reference`, when given, is a result of `failing` run with the same exec
// options as `run` (run_search passes the campaign batch's); it is used
// instead of executing a verification re-run. Without it the re-run always
// executes, memo or not. Either way the reference counts as one run and is
// recorded in the memo. With a memo, reduction candidates already in it are
// answered from their fault ids without building an Experiment or calling
// `run`. Every candidate that does execute is `failing` with the same id
// and fields except its faults, an order-preserving subsequence of
// `failing.failures`, and its load count. Without a memo every requested
// candidate calls `run`. `runs`, and with it the max_runs budget, is the
// same with or without a memo or a supplied reference; only `executed`
// differs.
ShrinkResult shrink(const campaign::Experiment& failing, const RunFn& run = {},
                    const ShrinkOptions& options = {},
                    ProbeMemo* memo = nullptr,
                    const campaign::ExperimentResult* reference = nullptr);

}  // namespace gremlin::search
