// Shared declarations of the end-to-end benchmark (see perfbench/NOTES.md).
//
// The benchmark drives the engine only through its public campaign, search,
// report, sim, control and logstore interfaces, with every execution mode at
// its default. A workload is a fixed set of inputs generated from a seed;
// the untraced run times whole batches of it, and the traced run replays it
// single-threaded as a chain of public calls with a span around each.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "search/search.h"

namespace perfbench {

namespace campaign = gremlin::campaign;
namespace search = gremlin::search;

// Seconds on the steady clock since an arbitrary origin.
double now_s();
// User + system CPU seconds of the whole process (every thread).
double cpu_s();
// Peak resident set size of this process, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
// Nearest-rank percentile, pct in [0, 100].
double percentile(std::vector<double> v, double pct);

// One named metric with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Everything one benchmark process reports. Counts must repeat exactly
// between batches; digests are compared against perfbench/reference.json.
struct Outcome {
  std::vector<Metric> metrics;
  std::map<std::string, uint64_t> counts;
  std::map<std::string, std::string> digests;
  uint64_t attempted = 0;  // experiments executed
  uint64_t failed = 0;     // experiments with ok == false, or in a bad batch
  std::vector<std::string> problems;  // failed self-checks, human readable
  std::vector<double> batch_walls;    // seconds per timed batch, in order

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Input size: the full workload, or a tiny one for the self-test.
enum class Size { kFull, kTiny };

// A generated workload. Campaign workloads carry their experiment list;
// search-k2 carries the app and its options.
struct Inputs {
  bool is_search = false;
  std::string title;
  std::vector<campaign::Experiment> experiments;
  campaign::AppSpec app;
  search::SearchOptions search_options;
};

bool known_workload(const std::string& name);
// Builds the workload's inputs: the set-up phase that setup_s times.
Inputs make_inputs(const std::string& workload, uint64_t seed, Size size,
                   int threads);

// Digests (digest.cc). FNV-1a 64-bit, hex.
std::string fnv_hex(const std::string& bytes);
std::string search_findings_digest(const search::SearchOutcome& outcome);
// Funnel counters of a search, by name.
std::map<std::string, uint64_t> search_funnel(
    const search::SearchOutcome& outcome);

// Untraced end-to-end run (workloads.cc).
Outcome run_untraced(const std::string& workload, uint64_t seed, Size size,
                     double seconds);

// Traced single-threaded per-layer run (traced.cc). Spans go to
// `spans_path` as Chrome trace-event JSON when it is non-empty.
Outcome run_traced(const std::string& workload, uint64_t seed, Size size,
                   const std::string& spans_path);

// Target resolution shared with the engine's generators: the first entry
// point that is neither excluded nor the client, else the client's callee.
std::string resolve_target(const gremlin::topology::AppGraph& graph,
                           const search::SearchOptions& options);

// The experiment a search runs for `faults` (mirrors run_search).
campaign::Experiment search_experiment(
    const campaign::AppSpec& app, const search::SearchOptions& options,
    const std::string& target, const std::string& id,
    std::vector<gremlin::control::FailureSpec> faults);

}  // namespace perfbench
