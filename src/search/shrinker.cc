#include "search/shrinker.h"

#include <algorithm>

#include "control/checker.h"

namespace gremlin::search {

std::string ProbeMemo::key(const campaign::Experiment& e) {
  std::string key =
      std::to_string(e.seed) + '/' + std::to_string(e.load.count);
  for (const auto& spec : e.failures) {
    const size_t id =
        fault_ids_.try_emplace(spec.fingerprint(), fault_ids_.size())
            .first->second;
    key += '/' + std::to_string(id);
  }
  return key;
}

const ProbeMemo::Outcome* ProbeMemo::find(const campaign::Experiment& e) {
  const auto it = outcomes_.find(key(e));
  return it == outcomes_.end() ? nullptr : &it->second;
}

void ProbeMemo::record(const campaign::Experiment& e,
                       const campaign::ExperimentResult& result) {
  Outcome outcome;
  outcome.ok = result.ok;
  outcome.passed = result.passed();
  if (outcome.ok && !outcome.passed) {
    outcome.signature = control::failure_signature(result.checks);
  }
  outcomes_.insert_or_assign(key(e), std::move(outcome));
}

ShrinkResult shrink(const campaign::Experiment& failing, const RunFn& run,
                    const ShrinkOptions& options, ProbeMemo* memo,
                    const campaign::ExperimentResult* reference) {
  const RunFn exec =
      run ? run : [](const campaign::Experiment& e) {
        campaign::ExecOptions lean;
        lean.keep_latencies = false;
        return campaign::CampaignRunner::run_one(e, lean);
      };

  ShrinkResult result;
  result.minimal = failing;
  result.faults_before = result.faults_after = failing.failures.size();
  result.load_before = result.load_after = failing.load.count;

  // The reference run fixes the failure mode every reduction must keep.
  // Without a caller-supplied result it is a verification re-run, which
  // must reproduce the failure before any reduction is meaningful. Either
  // way it counts as one requested run and is recorded in the memo, never
  // answered from it.
  campaign::ExperimentResult rerun;
  if (!reference) {
    rerun = exec(failing);
    ++result.executed;
    reference = &rerun;
  }
  ++result.runs;
  if (memo) memo->record(failing, *reference);
  if (!reference->ok || reference->passed()) {
    result.flaky = true;
    return result;
  }
  result.reproduced = true;
  result.signature = control::failure_signature(reference->checks);

  // A candidate counts as reproducing only when the identical set of checks
  // fails — shrinking must preserve the failure mode, not just "some
  // failure". A memo hit still counts as a requested run.
  auto reproduces = [&](const campaign::Experiment& candidate) {
    if (result.runs >= options.max_runs) return false;
    ++result.runs;
    if (memo) {
      if (const ProbeMemo::Outcome* hit = memo->find(candidate)) {
        return hit->ok && !hit->passed && hit->signature == result.signature;
      }
    }
    const campaign::ExperimentResult r = exec(candidate);
    ++result.executed;
    if (memo) memo->record(candidate, r);
    return r.ok && !r.passed() &&
           control::failure_signature(r.checks) == result.signature;
  };

  campaign::Experiment current = failing;

  // 1-minimal fault set: drop one fault at a time until no drop reproduces.
  bool progress = current.failures.size() > 1;
  while (progress && result.runs < options.max_runs) {
    progress = false;
    for (size_t i = 0; i < current.failures.size(); ++i) {
      if (current.failures.size() <= 1) break;
      campaign::Experiment candidate = current;
      candidate.failures.erase(candidate.failures.begin() +
                               static_cast<ptrdiff_t>(i));
      if (reproduces(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }

  // Load shrinking: halve while the failure persists.
  while (options.shrink_load && current.load.count > options.min_load &&
         result.runs < options.max_runs) {
    campaign::Experiment candidate = current;
    candidate.load.count =
        std::max(options.min_load, current.load.count / 2);
    if (!reproduces(candidate)) break;
    current = std::move(candidate);
  }

  result.faults_after = current.failures.size();
  result.load_after = current.load.count;
  result.minimal = std::move(current);
  return result;
}

}  // namespace gremlin::search
