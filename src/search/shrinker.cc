#include "search/shrinker.h"

#include <algorithm>

#include "control/checker.h"

namespace gremlin::search {

ShrinkResult shrink(const campaign::Experiment& failing, const RunFn& run,
                    const ShrinkOptions& options) {
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

  // Verification re-run: the failure must reproduce deterministically
  // before any reduction is meaningful.
  const campaign::ExperimentResult reference = exec(failing);
  ++result.runs;
  if (!reference.ok || reference.passed()) {
    result.flaky = true;
    return result;
  }
  result.reproduced = true;
  result.signature = control::failure_signature(reference.checks);

  // A candidate counts as reproducing only when the identical set of checks
  // fails — shrinking must preserve the failure mode, not just "some
  // failure".
  auto reproduces = [&](const campaign::Experiment& candidate) {
    if (result.runs >= options.max_runs) return false;
    const campaign::ExperimentResult r = exec(candidate);
    ++result.runs;
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
