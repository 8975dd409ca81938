#include "search/shrinker.h"

#include <algorithm>
#include <numeric>

#include "control/checker.h"

namespace gremlin::search {

size_t ProbeMemo::fault_id(const control::FailureSpec& spec) {
  return fault_ids_.try_emplace(spec.fingerprint(), fault_ids_.size())
      .first->second;
}

std::string ProbeMemo::key(uint64_t seed, size_t load_count,
                           std::span<const size_t> fault_ids) {
  std::string key = std::to_string(seed) + '/' + std::to_string(load_count);
  for (const size_t id : fault_ids) key += '/' + std::to_string(id);
  return key;
}

std::string ProbeMemo::key(const campaign::Experiment& e) {
  std::vector<size_t> ids;
  ids.reserve(e.failures.size());
  for (const auto& spec : e.failures) ids.push_back(fault_id(spec));
  return key(e.seed, e.load.count, ids);
}

const ProbeMemo::Outcome* ProbeMemo::find(const std::string& key) const {
  const auto it = outcomes_.find(key);
  return it == outcomes_.end() ? nullptr : &it->second;
}

const ProbeMemo::Outcome* ProbeMemo::find(const campaign::Experiment& e) {
  return find(key(e));
}

void ProbeMemo::record(std::string key,
                       const campaign::ExperimentResult& result) {
  Outcome outcome;
  outcome.ok = result.ok;
  outcome.passed = result.passed();
  if (outcome.ok && !outcome.passed) {
    outcome.signature = control::failure_signature(result.checks);
  }
  outcomes_.insert_or_assign(std::move(key), std::move(outcome));
}

void ProbeMemo::record(const campaign::Experiment& e,
                       const campaign::ExperimentResult& result) {
  record(key(e), result);
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
  result.faults_before = result.faults_after = failing.failures.size();
  result.load_before = result.load_after = failing.load.count;

  // The current reduction: indices into failing.failures, in order, plus a
  // load count. An Experiment is built from them only to execute a probe.
  std::vector<size_t> kept(failing.failures.size());
  std::iota(kept.begin(), kept.end(), size_t{0});
  size_t load = failing.load.count;
  auto materialize = [&failing](const std::vector<size_t>& faults,
                                size_t load_count) {
    campaign::Experiment e = failing;
    e.failures.clear();
    for (const size_t i : faults) e.failures.push_back(failing.failures[i]);
    e.load.count = load_count;
    return e;
  };

  // Memo keys come from fault ids, each fault fingerprinted once per shrink.
  std::vector<size_t> ids;
  std::vector<size_t> probe_ids;  // scratch: the ids of one probe's faults
  if (memo) {
    ids.reserve(failing.failures.size());
    for (const auto& spec : failing.failures) {
      ids.push_back(memo->fault_id(spec));
    }
  }
  auto probe_key = [&](const std::vector<size_t>& faults, size_t load_count) {
    probe_ids.clear();
    for (const size_t i : faults) probe_ids.push_back(ids[i]);
    return ProbeMemo::key(failing.seed, load_count, probe_ids);
  };

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
  if (memo) memo->record(probe_key(kept, load), *reference);
  if (!reference->ok || reference->passed()) {
    result.flaky = true;
    result.minimal = failing;
    return result;
  }
  result.reproduced = true;
  result.signature = control::failure_signature(reference->checks);

  // A candidate counts as reproducing only when the identical set of checks
  // fails — shrinking must preserve the failure mode, not just "some
  // failure". A memo hit still counts as a requested run.
  auto reproduces = [&](const std::vector<size_t>& faults, size_t load_count) {
    if (result.runs >= options.max_runs) return false;
    ++result.runs;
    std::string key;
    if (memo) {
      key = probe_key(faults, load_count);
      if (const ProbeMemo::Outcome* hit = memo->find(key)) {
        return hit->ok && !hit->passed && hit->signature == result.signature;
      }
    }
    const campaign::ExperimentResult r = exec(materialize(faults, load_count));
    ++result.executed;
    if (memo) memo->record(std::move(key), r);
    return r.ok && !r.passed() &&
           control::failure_signature(r.checks) == result.signature;
  };

  // 1-minimal fault set: drop one fault at a time until no drop reproduces.
  std::vector<size_t> candidate;
  bool progress = kept.size() > 1;
  while (progress && result.runs < options.max_runs) {
    progress = false;
    for (size_t i = 0; i < kept.size(); ++i) {
      if (kept.size() <= 1) break;
      candidate = kept;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (reproduces(candidate, load)) {
        kept.swap(candidate);
        progress = true;
        break;
      }
    }
  }

  // Load shrinking: halve while the failure persists.
  while (options.shrink_load && load > options.min_load &&
         result.runs < options.max_runs) {
    const size_t halved = std::max(options.min_load, load / 2);
    if (!reproduces(kept, halved)) break;
    load = halved;
  }

  result.faults_after = kept.size();
  result.load_after = load;
  result.minimal = materialize(kept, load);
  return result;
}

}  // namespace gremlin::search
