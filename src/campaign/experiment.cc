#include "campaign/experiment.h"

#include <algorithm>
#include <cstdio>

namespace gremlin::campaign {

using control::CheckResult;
using control::FailureSpec;

CheckSpec CheckSpec::has_timeouts(std::string service, Duration max_latency) {
  CheckSpec c;
  c.kind = Kind::kHasTimeouts;
  c.a = std::move(service);
  c.bound = max_latency;
  return c;
}

CheckSpec CheckSpec::has_bounded_retries(std::string src, std::string dst,
                                         int max_tries) {
  CheckSpec c;
  c.kind = Kind::kHasBoundedRetries;
  c.a = std::move(src);
  c.b = std::move(dst);
  c.threshold = max_tries;
  return c;
}

CheckSpec CheckSpec::has_circuit_breaker(std::string src, std::string dst,
                                         int threshold, Duration tdelta,
                                         int success_threshold) {
  CheckSpec c;
  c.kind = Kind::kHasCircuitBreaker;
  c.a = std::move(src);
  c.b = std::move(dst);
  c.threshold = threshold;
  c.bound = tdelta;
  c.success_threshold = success_threshold;
  return c;
}

CheckSpec CheckSpec::has_bulkhead(std::string src, std::string slow_dst,
                                  double min_rate) {
  CheckSpec c;
  c.kind = Kind::kHasBulkhead;
  c.a = std::move(src);
  c.b = std::move(slow_dst);
  c.value = min_rate;
  return c;
}

CheckSpec CheckSpec::has_latency_slo(std::string src, std::string dst,
                                     double percentile, Duration bound,
                                     bool with_rule) {
  CheckSpec c;
  c.kind = Kind::kHasLatencySlo;
  c.a = std::move(src);
  c.b = std::move(dst);
  c.percentile = percentile;
  c.bound = bound;
  c.with_rule = with_rule;
  return c;
}

CheckSpec CheckSpec::error_rate_below(std::string src, std::string dst,
                                      double max_fraction) {
  CheckSpec c;
  c.kind = Kind::kErrorRateBelow;
  c.a = std::move(src);
  c.b = std::move(dst);
  c.value = max_fraction;
  return c;
}

CheckSpec CheckSpec::failure_contained(std::string origin) {
  CheckSpec c;
  c.kind = Kind::kFailureContained;
  c.a = std::move(origin);
  return c;
}

CheckSpec CheckSpec::max_user_failures(size_t max_failures) {
  CheckSpec c;
  c.kind = Kind::kMaxUserFailures;
  c.value = static_cast<double>(max_failures);
  return c;
}

CheckResult CheckSpec::evaluate(const control::AssertionChecker& checker,
                                const control::LoadResult& load) const {
  return checker.evaluate(*incremental(checker.graph(), load.total()),
                          control::LoadSummary{load.total(), load.failures});
}

std::unique_ptr<control::IncrementalCheck> CheckSpec::incremental(
    const topology::AppGraph* graph, size_t expected_total) const {
  switch (kind) {
    case Kind::kHasTimeouts:
      return control::make_incremental_timeouts(a, bound, id_pattern);
    case Kind::kHasBoundedRetries:
      return control::make_incremental_bounded_retries(a, b, threshold,
                                                       id_pattern);
    case Kind::kHasCircuitBreaker:
      return control::make_incremental_circuit_breaker(
          a, b, threshold, bound, success_threshold, id_pattern);
    case Kind::kHasBulkhead:
      return control::make_incremental_bulkhead(graph, a, b, value,
                                                id_pattern);
    case Kind::kHasLatencySlo:
      return control::make_incremental_latency_slo(a, b, percentile, bound,
                                                   with_rule, id_pattern);
    case Kind::kErrorRateBelow:
      return control::make_incremental_error_rate(a, b, value, id_pattern);
    case Kind::kFailureContained:
      return control::make_incremental_failure_contained(a, id_pattern);
    case Kind::kMaxUserFailures:
      break;
  }
  return control::make_incremental_max_user_failures(
      static_cast<size_t>(value), expected_total);
}

namespace {

// Builds the failure spec for one sweep point; returns a human-readable
// scenario label through `label`.
FailureSpec sweep_spec(FailureSpec::Kind kind, const std::string& src,
                       const std::string& dst, const SweepOptions& options,
                       std::string* label) {
  switch (kind) {
    case FailureSpec::Kind::kAbort:
      *label = "abort(" + src + "->" + dst + ")";
      return FailureSpec::abort_edge(src, dst, options.abort_error);
    case FailureSpec::Kind::kDelay:
      *label = "delay(" + src + "->" + dst + ")";
      return FailureSpec::delay_edge(src, dst, options.delay);
    case FailureSpec::Kind::kDisconnect:
      *label = "disconnect(" + src + "->" + dst + ")";
      return FailureSpec::disconnect(src, dst, options.abort_error);
    case FailureSpec::Kind::kCrash:
      *label = "crash(" + dst + ")";
      return FailureSpec::crash(dst);
    case FailureSpec::Kind::kOverload:
      *label = "overload(" + dst + ")";
      return FailureSpec::overload(dst);
    case FailureSpec::Kind::kHang:
      *label = "hang(" + dst + ")";
      return FailureSpec::hang(dst, options.hang);
    case FailureSpec::Kind::kInstanceCrash:
      *label = "instance_crash(" + dst + ")";
      return FailureSpec::instance_crash(dst, options.crash_after,
                                         options.crash_downtime);
    case FailureSpec::Kind::kRollingPartition:
      // A sweep isolates one service at a time; multi-member rolling
      // partitions come from recipes or hand-built experiment lists.
      *label = "rolling_partition(" + dst + ")";
      return FailureSpec::rolling_partition({dst}, options.crash_after,
                                            options.crash_downtime,
                                            options.crash_downtime);
    case FailureSpec::Kind::kSlowNode:
      *label = "slow_node(" + dst + ")";
      return FailureSpec::slow_node(dst, options.slow_mean);
    default:
      *label = "abort(" + src + "->" + dst + ")";
      return FailureSpec::abort_edge(src, dst, options.abort_error);
  }
}

bool is_edge_kind(FailureSpec::Kind kind) {
  return kind == FailureSpec::Kind::kAbort ||
         kind == FailureSpec::Kind::kDelay ||
         kind == FailureSpec::Kind::kDisconnect ||
         kind == FailureSpec::Kind::kModify;
}

std::string probability_label(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

// Cross-multiplies the probability and window axes onto a base sweep.
// Overload experiments skip the probability axis: the kind's abort/delay
// split is its own probability, so a p=<v> clone would repeat the same run.
std::vector<Experiment> expand_axes(std::vector<Experiment> base,
                                    const SweepOptions& options) {
  if (options.probabilities.empty() && options.windows.empty()) return base;
  // A single-element sentinel keeps the cross product uniform; the flags
  // record whether the axis actually applies its value.
  const std::vector<double> no_probability{1.0};
  const bool use_w = !options.windows.empty();
  const std::vector<SweepOptions::Window> windows =
      use_w ? options.windows : std::vector<SweepOptions::Window>{{}};
  std::vector<Experiment> out;
  out.reserve(base.size() * std::max<size_t>(1, options.probabilities.size()) *
              windows.size());
  for (const auto& e : base) {
    const bool use_p =
        !options.probabilities.empty() &&
        std::none_of(e.failures.begin(), e.failures.end(),
                     [](const FailureSpec& spec) {
                       return spec.kind == FailureSpec::Kind::kOverload;
                     });
    for (const double p : use_p ? options.probabilities : no_probability) {
      for (const auto& w : windows) {
        Experiment clone = e;
        for (auto& spec : clone.failures) {
          if (use_p) spec.probability = p;
          if (use_w) {
            spec.after = w.after;
            spec.window = w.duration;
          }
        }
        if (use_p) clone.id += " p=" + probability_label(p);
        if (use_w) {
          clone.id += " w=" + format_duration(w.after) + "+" +
                      format_duration(w.duration);
        }
        out.push_back(std::move(clone));
      }
    }
  }
  return out;
}

}  // namespace

std::string load_target(const topology::AppGraph& graph,
                        const std::string& client, const std::string& target,
                        const std::set<std::string>& exclude) {
  if (!target.empty()) return target;
  for (const auto& entry : graph.entry_points()) {
    if (exclude.count(entry) == 0 && entry != client) return entry;
  }
  for (const auto& edge : graph.edges()) {
    if (edge.src == client) return edge.dst;
  }
  return {};
}

std::vector<Experiment> generate_sweep(const AppSpec& app,
                                       const topology::AppGraph& graph,
                                       const SweepOptions& options) {
  const std::string target =
      load_target(graph, options.client, options.target, options.exclude);

  std::vector<CheckSpec> checks = options.checks;
  if (checks.empty()) checks.push_back(CheckSpec::max_user_failures(0));

  // The load entry edge is not a fault target: killing the user-facing
  // front door is trivially user-visible and says nothing about failure
  // handling (same exclusion bench_ablation applied by hand).
  std::set<std::string> excluded = options.exclude;
  excluded.insert(options.client);
  if (!target.empty()) excluded.insert(target);

  std::vector<Experiment> experiments;
  for (const auto kind : options.kinds) {
    if (is_edge_kind(kind)) {
      for (const auto& edge : graph.edges()) {
        // Only the callee side disqualifies an edge: faulting calls *into*
        // the front door is trivially user-visible, but the front door's
        // own outbound edges are exactly what a sweep must cover.
        if (excluded.count(edge.dst) != 0) continue;
        Experiment e;
        e.app = app;
        e.failures.push_back(
            sweep_spec(kind, edge.src, edge.dst, options, &e.id));
        e.client = options.client;
        e.target = target;
        e.load = options.load;
        e.checks = checks;
        e.seed = options.seed;
        experiments.push_back(std::move(e));
      }
    } else {
      for (const auto& service : graph.services()) {
        if (excluded.count(service) != 0) continue;
        Experiment e;
        e.app = app;
        e.failures.push_back(sweep_spec(kind, "", service, options, &e.id));
        e.client = options.client;
        e.target = target;
        e.load = options.load;
        e.checks = checks;
        e.seed = options.seed;
        experiments.push_back(std::move(e));
      }
    }
  }
  return expand_axes(std::move(experiments), options);
}

std::vector<Experiment> replicate_seeds(const std::vector<Experiment>& base,
                                        const std::vector<uint64_t>& seeds) {
  std::vector<Experiment> out;
  out.reserve(base.size() * seeds.size());
  for (const auto& e : base) {
    for (const uint64_t seed : seeds) {
      Experiment clone = e;
      clone.seed = seed;
      clone.id += " seed=" + std::to_string(seed);
      out.push_back(std::move(clone));
    }
  }
  return out;
}

}  // namespace gremlin::campaign
