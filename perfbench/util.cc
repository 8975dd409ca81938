// Clocks, statistics, digests and the search-experiment helpers shared by
// the untraced and the traced run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[index - 1];
}

std::string fnv_hex(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string search_findings_digest(const search::SearchOutcome& outcome) {
  std::vector<std::string> lines;
  lines.reserve(outcome.findings.size());
  for (const auto& f : outcome.findings) {
    lines.push_back(f.minimal + "|" + std::to_string(f.load_count) + "|" +
                    f.signature + "|" + (f.flaky ? "flaky" : "stable"));
  }
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const auto& line : lines) joined += line + "\n";
  return fnv_hex(joined);
}

std::map<std::string, uint64_t> search_funnel(
    const search::SearchOutcome& outcome) {
  return {
      {"fault_points", outcome.fault_points},
      {"generated", outcome.generated},
      {"truncated", outcome.truncated},
      {"pruned", outcome.pruned},
      {"ran", outcome.ran},
      {"passed", outcome.passed},
      {"failed", outcome.failed},
      {"errors", outcome.errors},
      {"shrink_runs", outcome.shrink_runs},
      {"findings", outcome.findings.size()},
  };
}

std::string resolve_target(const gremlin::topology::AppGraph& graph,
                           const search::SearchOptions& options) {
  if (!options.target.empty()) return options.target;
  for (const auto& entry : graph.entry_points()) {
    if (options.generator.exclude.count(entry) == 0 &&
        entry != options.client) {
      return entry;
    }
  }
  for (const auto& edge : graph.edges()) {
    if (edge.src == options.client) return edge.dst;
  }
  return {};
}

campaign::Experiment search_experiment(
    const campaign::AppSpec& app, const search::SearchOptions& options,
    const std::string& target, const std::string& id,
    std::vector<gremlin::control::FailureSpec> faults) {
  campaign::Experiment e;
  e.id = id;
  e.app = app;
  e.failures = std::move(faults);
  e.client = options.client;
  e.target = target;
  e.load = options.load;
  e.checks = options.checks;
  if (e.checks.empty()) {  // run_search's default verdict
    e.checks.push_back(campaign::CheckSpec::max_user_failures(0));
  }
  e.seed = options.seed;
  return e;
}

}  // namespace perfbench
