// CampaignReport: the operator-facing aggregate of a campaign run.
//
// Where a TestReport explains one test, a CampaignReport summarizes
// hundreds: per-experiment verdicts with latency statistics, the failing
// subset up front (the "which scenarios break the app" answer a sweep
// exists to produce), and campaign-level throughput numbers. Exportable as
// JSON (dashboards/CI) or Markdown (humans).
#pragma once

#include <string>
#include <vector>

#include "campaign/runner.h"
#include "common/json.h"
#include "workload/stats.h"

namespace gremlin::report {

struct ExperimentRow {
  std::string id;
  uint64_t seed = 0;
  bool ok = false;
  bool passed = false;
  std::string error;
  size_t checks_passed = 0;
  size_t checks_total = 0;
  size_t requests = 0;
  size_t failures = 0;
  workload::Summary latency;  // empty when latencies were dropped
  std::vector<control::CheckResult> failed_checks;
};

struct CampaignReport {
  std::string title;
  size_t total = 0;
  size_t passed = 0;
  size_t failed = 0;  // ran, but at least one check failed
  size_t errors = 0;  // infrastructure error (translate/install/collect)
  size_t early_terminated = 0;  // stopped early by online checking

  // Prefix-snapshot cache effectiveness (campaign/snapshot_exec.h):
  // experiments that restored a shared fault-free prefix (hits), built one
  // (misses), and the total prefix events hits did not re-simulate.
  size_t snapshot_hits = 0;
  size_t snapshot_misses = 0;
  uint64_t prefix_events_skipped = 0;

  // Campaign-level per-request latency quantiles, streamed (P² estimators)
  // over every request of every experiment that kept latencies; count == 0
  // when latencies were dropped.
  workload::Summary latency;

  int threads = 1;
  int procs = 1;  // worker processes (multi-process sharding)
  Duration wall_clock{};

  // Verdict-only digest of the whole campaign (see
  // campaign::ExperimentResult::verdict_fingerprint): identical between
  // early-exit and full runs, so two reports can be diffed across modes.
  std::string verdict_fingerprint;

  // FNV-1a hex digest of CampaignResult::fingerprint() — the byte-exact
  // everything-digest (counters, latencies, statuses included). Stable
  // across threads × procs combinations and every other execution mode
  // when early exit is off.
  std::string result_fingerprint;

  std::vector<ExperimentRow> rows;  // campaign order

  bool all_passed() const { return passed == total; }

  Json to_json() const;
  std::string to_markdown() const;
};

CampaignReport build_campaign_report(const campaign::CampaignResult& result,
                                     std::string title);

}  // namespace gremlin::report
