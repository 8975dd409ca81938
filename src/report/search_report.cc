#include "report/search_report.h"

#include <cstdio>

#include "search/combinations.h"

namespace gremlin::report {

namespace {

std::string fmt_ms(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fms", to_millis(d));
  return buf;
}

std::string pct(size_t part, size_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                       static_cast<double>(whole));
  return buf;
}

}  // namespace

Json SearchReport::to_json() const {
  const search::SearchOutcome& o = outcome;
  Json j = Json::object();
  j["title"] = title;
  j["app"] = o.app;
  j["seed"] = static_cast<int64_t>(o.seed);
  j["ok"] = o.ok;
  if (!o.error.empty()) j["error"] = o.error;
  j["threads"] = static_cast<int64_t>(o.threads);
  j["procs"] = static_cast<int64_t>(o.procs);
  j["wall_clock_us"] = o.wall_clock.count();

  Json baseline = Json::object();
  baseline["passed"] = o.baseline_passed;
  baseline["requests"] = static_cast<int64_t>(o.baseline_requests);
  baseline["observed_edges"] = static_cast<int64_t>(o.observed_edges);
  baseline["distinct_paths"] = static_cast<int64_t>(o.observed_paths);
  j["baseline"] = baseline;

  Json space = Json::object();
  space["fault_points"] = static_cast<int64_t>(o.fault_points);
  space["generated"] = static_cast<int64_t>(o.generated);
  space["truncated"] = static_cast<int64_t>(o.truncated);
  space["pruned"] = static_cast<int64_t>(o.pruned);
  space["pruned_unreachable"] = static_cast<int64_t>(o.pruned_unreachable);
  space["pruned_no_shared_path"] =
      static_cast<int64_t>(o.pruned_no_shared_path);
  space["run"] = static_cast<int64_t>(o.ran);
  space["passed"] = static_cast<int64_t>(o.passed);
  space["failed"] = static_cast<int64_t>(o.failed);
  space["errors"] = static_cast<int64_t>(o.errors);
  space["shrink_runs"] = static_cast<int64_t>(o.shrink_runs);
  space["shrink_executed"] = static_cast<int64_t>(o.shrink_executed);
  space["verify_runs"] = static_cast<int64_t>(o.verify_runs);
  j["space"] = space;

  Json findings = Json::array();
  for (const auto& f : o.findings) {
    Json fj = Json::object();
    fj["combination"] = f.combination;
    fj["minimal"] = f.minimal;
    Json faults = Json::array();
    for (const auto& spec : f.faults) faults.push_back(search::describe(spec));
    fj["faults"] = faults;
    fj["seed"] = static_cast<int64_t>(f.seed);
    fj["load_count"] = static_cast<int64_t>(f.load_count);
    fj["signature"] = f.signature;
    fj["flaky"] = f.flaky;
    fj["shrink_runs"] = static_cast<int64_t>(f.shrink_runs);
    fj["faults_before"] = static_cast<int64_t>(f.faults_before);
    fj["occurrences"] = static_cast<int64_t>(f.occurrences);
    findings.push_back(std::move(fj));
  }
  j["findings"] = findings;

  Json combos = Json::array();
  for (const auto& row : o.combos) {
    Json cj = Json::object();
    cj["label"] = row.label;
    cj["k"] = static_cast<int64_t>(row.k);
    cj["verdict"] = row.ran
                        ? (row.error ? "error"
                                     : (row.passed ? "passed" : "failed"))
                        : to_string(row.verdict);
    if (!row.prune_detail.empty()) cj["detail"] = row.prune_detail;
    combos.push_back(std::move(cj));
  }
  j["combinations"] = combos;
  return j;
}

std::string SearchReport::to_markdown() const {
  const search::SearchOutcome& o = outcome;
  std::string out = "# Gremlin fault-space search — " + title + "\n\n";
  if (!o.ok) {
    out += "**Result: ERROR** — " + o.error + "\n";
    return out;
  }
  out += o.findings.empty() ? "**Result: CLEAN**" : "**Result: FAILURES**";
  out += " (" + std::to_string(o.findings.size()) +
         " distinct minimal reproducers; seed " + std::to_string(o.seed) +
         ", " + std::to_string(o.threads) + " threads, " +
         fmt_ms(o.wall_clock) + " wall clock)\n\n";

  out += "## Search funnel\n\n";
  out += "| stage | count |\n|---|---|\n";
  out += "| fault points | " + std::to_string(o.fault_points) + " |\n";
  out += "| combinations generated | " + std::to_string(o.generated) + " |\n";
  if (o.truncated > 0) {
    out += "| dropped by budget cap | " + std::to_string(o.truncated) + " |\n";
  }
  out += "| pruned via observed call graph | " + std::to_string(o.pruned) +
         " (" + pct(o.pruned, o.generated) + "; " +
         std::to_string(o.pruned_unreachable) + " unreachable, " +
         std::to_string(o.pruned_no_shared_path) + " no shared path) |\n";
  out += "| run | " + std::to_string(o.ran) + " |\n";
  out += "| failed | " + std::to_string(o.failed) + " |\n";
  if (o.errors > 0) out += "| errors | " + std::to_string(o.errors) + " |\n";
  out += "| shrink probes | " + std::to_string(o.shrink_runs) +
         " requested, " + std::to_string(o.shrink_executed) +
         " simulated |\n";
  out += "| cold reproducer replays | " + std::to_string(o.verify_runs) +
         " |\n";
  out += "\n";

  out += "Baseline: " + std::to_string(o.baseline_requests) +
         " requests observed " + std::to_string(o.observed_edges) +
         " call edges across " + std::to_string(o.observed_paths) +
         " distinct request paths.\n\n";

  if (!o.findings.empty()) {
    out += "## Minimal reproducers\n\n";
    for (const auto& f : o.findings) {
      out += "- **" + f.minimal + "**";
      if (f.flaky) out += " — FLAKY (did not reproduce on a cold replay)";
      out += "\n";
      out += "  - violates: `" + f.signature + "`\n";
      out += "  - replay: seed " + std::to_string(f.seed) + ", " +
             std::to_string(f.load_count) + " requests\n";
      out += "  - shrunk from " + std::to_string(f.faults_before) +
             " fault(s) (`" + f.combination + "`), " +
             std::to_string(f.occurrences) +
             " failing combination(s) collapse onto this reproducer\n";
    }
    out += "\n";
  }
  return out;
}

SearchReport build_search_report(search::SearchOutcome outcome,
                                 std::string title) {
  SearchReport report;
  report.title = std::move(title);
  report.outcome = std::move(outcome);
  return report;
}

}  // namespace gremlin::report
