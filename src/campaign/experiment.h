// Experiment: one declarative resilience test, and generators that
// systematically enumerate experiments from an application graph.
//
// The paper's pitch (Section 4) is *systematic* testing: instead of
// hand-writing one imperative TestSession flow per scenario, an Experiment
// is a value — (app spec, failure specs, load shape, assertion set, seed) —
// that the CampaignRunner can execute on a private Simulation, thousands at
// a time. Generators produce per-edge and per-service sweeps over an
// AppGraph (the "enumerate every failure the graph admits" loop that
// bench_ablation_systematic_vs_random and FastFI-style campaigns need),
// and multi-seed replication turns any experiment list into a statistical
// ensemble.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "control/checker.h"
#include "control/failures.h"
#include "control/online.h"
#include "control/recipe.h"

namespace gremlin::campaign {

// A declarative assertion: what to check once the experiment's logs are
// collected. Mirrors the AssertionChecker surface as data so experiments
// can be generated, serialized, and compared.
struct CheckSpec {
  enum class Kind {
    kHasTimeouts,        // a: service;       bound = max latency
    kHasBoundedRetries,  // a→b;              threshold = max tries
    kHasCircuitBreaker,  // a→b;              threshold, bound = tdelta,
                         //                   success_threshold
    kHasBulkhead,        // a: src, b: slow;  value = min rate (req/s)
    kHasLatencySlo,      // a→b;              percentile, bound, with_rule
    kErrorRateBelow,     // a→b;              value = max failed fraction
    kFailureContained,   // a: origin service
    kMaxUserFailures,    // value = max user-visible load failures
  };

  Kind kind = Kind::kMaxUserFailures;
  std::string a;
  std::string b;
  Duration bound{};
  double value = 0;
  double percentile = 99;
  int threshold = 5;
  int success_threshold = 1;
  bool with_rule = true;
  std::string id_pattern = "*";

  // Factories mirroring control::AssertionChecker.
  static CheckSpec has_timeouts(std::string service, Duration max_latency);
  static CheckSpec has_bounded_retries(std::string src, std::string dst,
                                       int max_tries);
  static CheckSpec has_circuit_breaker(std::string src, std::string dst,
                                       int threshold, Duration tdelta,
                                       int success_threshold = 1);
  static CheckSpec has_bulkhead(std::string src, std::string slow_dst,
                                double min_rate);
  static CheckSpec has_latency_slo(std::string src, std::string dst,
                                   double percentile, Duration bound,
                                   bool with_rule = true);
  static CheckSpec error_rate_below(std::string src, std::string dst,
                                    double max_fraction);
  static CheckSpec failure_contained(std::string origin);
  static CheckSpec max_user_failures(size_t max_failures);

  // The check's state machine (control/online.h), the one implementation
  // of every kind; never null. The runner streams records into it while
  // the experiment runs. `expected_total` is the configured load count
  // (kMaxUserFailures can early-PASS once all responses arrived within
  // budget); `graph` is needed by kHasBulkhead's dependency enumeration.
  std::unique_ptr<control::IncrementalCheck> incremental(
      const topology::AppGraph* graph, size_t expected_total) const;

  // Post hoc: incremental() fed the collected logs through `checker` (and
  // the load outcome, for kMaxUserFailures).
  control::CheckResult evaluate(const control::AssertionChecker& checker,
                                const control::LoadResult& load) const;
};

// One isolated experiment. Executed by CampaignRunner::run_one on a fresh
// Simulation seeded with `seed`: build app → apply failures → run load →
// collect logs → evaluate checks.
struct Experiment {
  std::string id;  // unique within a campaign, e.g. "crash(svc2) seed=7"
  AppSpec app;
  std::vector<control::FailureSpec> failures;
  std::string client = "user";
  std::string target;  // load destination; empty → first graph entry point
  control::LoadOptions load;
  std::vector<CheckSpec> checks;
  uint64_t seed = 42;

  // Escape hatch for imperative, chained scenarios (e.g. the Table 1
  // outage recipes): when set, the hook replaces the declarative
  // failures/load/checks body and returns the assertion outcomes itself.
  std::function<std::vector<control::CheckResult>(control::TestSession*)>
      custom;
};

// Options shared by the sweep generators.
struct SweepOptions {
  // Failure kinds to enumerate. Edge kinds (kAbort, kDelay, kDisconnect)
  // produce one experiment per graph edge; service kinds (kCrash,
  // kOverload, kHang) one per service.
  std::vector<control::FailureSpec::Kind> kinds = {
      control::FailureSpec::Kind::kAbort,
      control::FailureSpec::Kind::kDelay,
      control::FailureSpec::Kind::kOverload,
      control::FailureSpec::Kind::kCrash,
      control::FailureSpec::Kind::kDisconnect,
  };

  // Services never targeted (nor used as fault sources): typically the
  // edge client and the user-facing entry point, whose failure is
  // trivially user-visible.
  std::set<std::string> exclude = {"user"};

  control::LoadOptions load;  // load shape shared by every experiment
  std::string client = "user";
  std::string target;  // empty → first entry point of the graph

  // Checks attached to every experiment. Empty → the canonical sweep
  // verdict: no user-visible failures (CheckSpec::max_user_failures(0)).
  std::vector<CheckSpec> checks;

  uint64_t seed = 42;
  int abort_error = 503;
  Duration delay = msec(100);
  Duration hang = hours(1);

  // Parameters for the infra-level service kinds (kInstanceCrash,
  // kRollingPartition, kSlowNode).
  Duration crash_after{};             // outage start on the virtual clock
  Duration crash_downtime = msec(200);
  Duration slow_mean = msec(50);      // kSlowNode exponential delay mean

  // Parameter axes. When non-empty, every generated experiment is
  // replicated once per probability (id suffixed " p=<v>") and once per
  // activation window (" w=<after>+<duration>"), with the value applied to
  // each of the clone's failure specs. Both axes cross-multiply. Overload
  // experiments are not crossed with probabilities: the kind's abort/delay
  // split is its own probability (see control::FailureSpec).
  std::vector<double> probabilities;
  struct Window {
    Duration after{};
    Duration duration{};  // zero = open-ended
  };
  std::vector<Window> windows;
};

// The service an experiment's load drives: `target` when set, else the
// first entry point of `graph` that is neither in `exclude` nor the client,
// else the front door the client calls (the client is usually the graph's
// only root, "user" -> svc0). Empty when the graph offers none. The sweep
// generator, both execution paths and the fault-space search all resolve
// their load target here.
std::string load_target(const topology::AppGraph& graph,
                        const std::string& client, const std::string& target,
                        const std::set<std::string>& exclude = {});

// Enumerates one experiment per (edge|service) × kind over `graph`
// (which must be the spec's logical graph, e.g. app.probe_graph()).
std::vector<Experiment> generate_sweep(const AppSpec& app,
                                       const topology::AppGraph& graph,
                                       const SweepOptions& options = {});

// Multi-seed replication: the cross product experiments × seeds, each
// clone re-seeded and its id suffixed with " seed=<s>".
std::vector<Experiment> replicate_seeds(const std::vector<Experiment>& base,
                                        const std::vector<uint64_t>& seeds);

}  // namespace gremlin::campaign
