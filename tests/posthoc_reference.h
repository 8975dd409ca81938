// Post-hoc reference implementations of the checks: the test oracle.
//
// Production evaluates every check kind with one implementation, the
// incremental state machines of control/online.h, streamed while an
// experiment runs or fed a finished LogStore through AssertionChecker.
// This header keeps the former post-hoc implementation of each check,
// written directly against LogStore queries and sharing no evaluation code
// with the machines, so tests can hold the machines to an independent
// reference. Nothing under src/ includes it.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/experiment.h"
#include "control/assertions.h"
#include "control/checker.h"
#include "control/recipe.h"
#include "logstore/store.h"
#include "topology/graph.h"
#include "trace/trace.h"

namespace gremlin::reference {

using control::CheckResult;
using control::Combine;
using control::synthesized_by_gremlin;
using logstore::LogRecord;
using logstore::MessageKind;
using logstore::RecordList;

inline std::string fmt_edge(const std::string& src, const std::string& dst) {
  return src + " -> " + dst;
}

inline logstore::Query exchanges_query(const std::string& src,
                                       const std::string& dst,
                                       const std::string& id_pattern) {
  logstore::Query q;
  q.src = src;
  q.dst = dst;
  q.id_pattern = id_pattern;
  q.any_kind = true;
  return q;
}

inline logstore::Query replies_query(const std::string& src,
                                     const std::string& dst,
                                     const std::string& id_pattern) {
  logstore::Query q;
  q.src = src;
  q.dst = dst;
  q.id_pattern = id_pattern;
  q.kind = MessageKind::kResponse;
  return q;
}

// The AssertionChecker pattern checks, each over its own LogStore query.
class PostHocChecker {
 public:
  explicit PostHocChecker(const logstore::LogStore* store,
                          const topology::AppGraph* graph = nullptr)
      : store_(store), graph_(graph) {}

  RecordList get_exchanges(const std::string& src, const std::string& dst,
                           const std::string& id_pattern = "*") const;

  CheckResult has_timeouts(const std::string& service, Duration max_latency,
                           const std::string& id_pattern = "*") const;
  CheckResult has_bounded_retries(const std::string& src,
                                  const std::string& dst, int max_tries,
                                  const std::string& id_pattern = "*") const;
  CheckResult has_bounded_retries_windowed(
      const std::string& src, const std::string& dst, int status,
      size_t threshold_failures, Duration window, size_t max_more,
      const std::string& id_pattern = "*") const;
  CheckResult has_circuit_breaker(const std::string& src,
                                  const std::string& dst, int threshold,
                                  Duration tdelta, int success_threshold,
                                  const std::string& id_pattern = "*") const;
  CheckResult has_bulkhead(const std::string& src,
                           const std::string& slow_dst, double min_rate,
                           const std::string& id_pattern = "*") const;
  CheckResult has_latency_slo(const std::string& src, const std::string& dst,
                              double percentile, Duration bound,
                              bool with_rule = true,
                              const std::string& id_pattern = "*") const;
  CheckResult error_rate_below(const std::string& src,
                               const std::string& dst, double max_fraction,
                               const std::string& id_pattern = "*") const;
  CheckResult failure_contained(const std::string& origin_service,
                                const std::string& id_pattern = "*") const;

 private:
  const logstore::LogStore* store_;
  const topology::AppGraph* graph_;
};

inline RecordList PostHocChecker::get_exchanges(
    const std::string& src, const std::string& dst,
    const std::string& id_pattern) const {
  return store_->query(exchanges_query(src, dst, id_pattern));
}

inline CheckResult PostHocChecker::has_timeouts(
    const std::string& service, Duration max_latency,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasTimeouts(" + service + ", " +
                format_duration(max_latency) + ")";
  logstore::Query q;
  q.dst = service;
  q.any_kind = true;
  q.id_pattern = id_pattern;

  // Pair requests with replies FIFO per calling edge; a request that stays
  // unanswered for longer than the bound (within the observation window) is
  // the worst timeout violation of all — the caller is hung.
  struct State {
    std::map<Symbol, std::deque<TimePoint>> pending;  // per src
    TimePoint observation_end{};
    Duration worst = kDurationZero;
    size_t violations = 0;
    size_t replies = 0;
  } st;
  const size_t visited =
      store_->for_each(q, [&st, max_latency](const LogRecord& r) {
        st.observation_end = r.timestamp;  // visited in time order
        if (r.kind == MessageKind::kRequest) {
          st.pending[r.src].push_back(r.timestamp);
          return;
        }
        ++st.replies;
        auto& queue = st.pending[r.src];
        if (!queue.empty()) queue.pop_front();
        // Discount Gremlin's own interference on this edge.
        const Duration adjusted =
            r.latency > r.injected_delay ? r.latency - r.injected_delay
                                         : kDurationZero;
        st.worst = std::max(st.worst, adjusted);
        if (adjusted > max_latency) ++st.violations;
      });
  if (visited == 0) {
    result.passed = false;
    result.detail = "no traffic into " + service +
                    " observed; cannot verify the pattern";
    return result;
  }
  size_t unanswered = 0;
  for (const auto& [src, queue] : st.pending) {
    for (const TimePoint sent : queue) {
      if (st.observation_end - sent > max_latency) {
        ++unanswered;
        st.worst = std::max(st.worst, st.observation_end - sent);
      }
    }
  }
  if (st.replies == 0 && unanswered == 0) {
    result.passed = false;
    result.detail = "no replies from " + service +
                    " observed; cannot verify the pattern";
    return result;
  }
  result.passed = st.violations == 0 && unanswered == 0;
  result.detail = std::to_string(st.replies) + " replies, worst " +
                  format_duration(st.worst) + ", " +
                  std::to_string(st.violations) + " over the " +
                  format_duration(max_latency) + " bound, " +
                  std::to_string(unanswered) + " requests never answered";
  return result;
}

inline CheckResult PostHocChecker::has_bounded_retries(
    const std::string& src, const std::string& dst, int max_tries,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasBoundedRetries(" + fmt_edge(src, dst) + ", " +
                std::to_string(max_tries) + ")";
  // Group attempts per flow; only flows that experienced a failure are
  // evidence about retry behaviour.
  struct Flow {
    size_t attempts = 0;
    bool saw_failure = false;
  };
  std::map<std::string, Flow, std::less<>> flows;
  const size_t visited = store_->for_each(
      exchanges_query(src, dst, id_pattern), [&flows](const LogRecord& r) {
        Flow& f = flows[r.request_id];
        if (r.kind == MessageKind::kRequest) {
          ++f.attempts;
        } else if (r.failed()) {
          f.saw_failure = true;
        }
      });
  if (visited == 0) {
    result.passed = false;
    result.detail = "no traffic observed on " + fmt_edge(src, dst);
    return result;
  }
  size_t failed_flows = 0;
  size_t worst_attempts = 0;
  size_t violations = 0;
  const size_t allowed = static_cast<size_t>(max_tries) + 1;  // initial + retries
  for (const auto& [id, f] : flows) {
    if (!f.saw_failure) continue;
    ++failed_flows;
    worst_attempts = std::max(worst_attempts, f.attempts);
    if (f.attempts > allowed) ++violations;
  }
  if (failed_flows == 0) {
    result.passed = false;
    result.detail = "no failed calls observed on " + fmt_edge(src, dst) +
                    "; cannot verify the pattern";
    return result;
  }
  result.passed = violations == 0;
  result.detail = std::to_string(failed_flows) + " flows saw failures; max " +
                  std::to_string(worst_attempts) + " attempts per flow (" +
                  std::to_string(allowed) + " allowed); " +
                  std::to_string(violations) + " violations";
  return result;
}

inline CheckResult PostHocChecker::has_bounded_retries_windowed(
    const std::string& src, const std::string& dst, int status,
    size_t threshold_failures, Duration window, size_t max_more,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasBoundedRetriesWindowed(" + fmt_edge(src, dst) + ")";
  // Combine walks subspans of one materialized list; the steps themselves
  // copy nothing.
  const RecordList records = get_exchanges(src, dst, id_pattern);
  if (records.empty()) {
    result.passed = false;
    result.detail = "no traffic observed on " + fmt_edge(src, dst);
    return result;
  }
  Combine chain;
  chain.then(Combine::check_status(status, threshold_failures))
      .then(Combine::at_most_requests(window, /*with_rule=*/true, max_more));
  result.passed = chain.evaluate(records);
  result.detail = result.passed
                      ? "after " + std::to_string(threshold_failures) +
                            " status-" + std::to_string(status) +
                            " replies, at most " + std::to_string(max_more) +
                            " requests followed within " +
                            format_duration(window)
                      : "more than " + std::to_string(max_more) +
                            " requests within " + format_duration(window) +
                            " of " + std::to_string(threshold_failures) +
                            " failures (or failures never occurred)";
  return result;
}

inline CheckResult PostHocChecker::has_circuit_breaker(
    const std::string& src, const std::string& dst, int threshold,
    Duration tdelta, int success_threshold,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasCircuitBreaker(" + fmt_edge(src, dst) + ", " +
                std::to_string(threshold) + ", " + format_duration(tdelta) +
                ", " + std::to_string(success_threshold) + ")";
  // The scan needs indexed back-tracking, so project the records down to the
  // three fields it reads — 16 bytes each instead of a full LogRecord copy.
  struct Obs {
    TimePoint timestamp;
    bool is_request;
    bool failed;
  };
  std::vector<Obs> obs;
  store_->for_each(exchanges_query(src, dst, id_pattern),
                   [&obs](const LogRecord& r) {
                     obs.push_back({r.timestamp,
                                    r.kind == MessageKind::kRequest,
                                    r.failed()});
                   });
  if (obs.empty()) {
    result.passed = false;
    result.detail = "no traffic observed on " + fmt_edge(src, dst);
    return result;
  }

  // Find the first run of `threshold` consecutive failed replies.
  int consecutive = 0;
  std::optional<size_t> trip_index;
  for (size_t i = 0; i < obs.size(); ++i) {
    const auto& r = obs[i];
    if (r.is_request) continue;
    if (r.failed) {
      if (++consecutive >= threshold) {
        trip_index = i;
        break;
      }
    } else {
      consecutive = 0;
    }
  }
  if (!trip_index) {
    result.passed = false;
    result.detail = "never observed " + std::to_string(threshold) +
                    " consecutive failures; cannot verify the pattern";
    return result;
  }
  const TimePoint trip_time = obs[*trip_index].timestamp;

  // The breaker must suppress requests for tdelta after the trip.
  size_t requests_while_open = 0;
  std::optional<TimePoint> first_probe;
  int successes_after_open = 0;
  size_t requests_after_close_window = 0;
  for (size_t i = *trip_index + 1; i < obs.size(); ++i) {
    const auto& r = obs[i];
    if (r.is_request) {
      if (r.timestamp - trip_time < tdelta) {
        ++requests_while_open;
      } else {
        if (!first_probe) first_probe = r.timestamp;
        ++requests_after_close_window;
      }
    } else if (first_probe && !r.failed) {
      ++successes_after_open;
    }
  }
  if (requests_while_open > 0) {
    result.passed = false;
    result.detail = std::to_string(requests_while_open) +
                    " requests sent within " + format_duration(tdelta) +
                    " of the trip (breaker missing or leaky)";
    return result;
  }
  result.passed = true;
  std::string detail = "no requests for " + format_duration(tdelta) +
                       " after " + std::to_string(threshold) +
                       " consecutive failures";
  if (first_probe) {
    detail += "; probe traffic resumed (" +
              std::to_string(requests_after_close_window) + " requests, " +
              std::to_string(successes_after_open) + " successes";
    detail += successes_after_open >= success_threshold
                  ? ", breaker closed)"
                  : ", breaker not yet closed)";
  } else {
    detail += "; no probe traffic observed after the open window";
  }
  result.detail = detail;
  return result;
}

inline CheckResult PostHocChecker::has_bulkhead(
    const std::string& src, const std::string& slow_dst, double min_rate,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasBulkhead(" + src + ", slow=" + slow_dst + ", rate>=" +
                std::to_string(min_rate) + "/s)";
  if (graph_ == nullptr) {
    result.passed = false;
    result.detail = "no application graph supplied; cannot enumerate the "
                    "other dependents of " + src;
    return result;
  }
  const auto deps = graph_->dependencies(src);
  bool checked_any = false;
  std::string detail;
  bool all_ok = true;
  for (const auto& dep : deps) {
    if (dep == slow_dst) continue;
    checked_any = true;
    // Streaming request_rate: the query filters to requests already.
    struct State {
      size_t count = 0;
      TimePoint first{}, last{};
    } st;
    logstore::Query q;
    q.src = src;
    q.dst = dep;
    q.id_pattern = id_pattern;
    store_->for_each(q, [&st](const LogRecord& r) {
      if (st.count == 0) st.first = r.timestamp;
      st.last = r.timestamp;
      ++st.count;
    });
    const double rate =
        (st.count < 2 || st.last <= st.first)
            ? 0.0
            : static_cast<double>(st.count - 1) / to_seconds(st.last - st.first);
    if (!detail.empty()) detail += "; ";
    detail += dep + ": " + std::to_string(rate) + " req/s";
    if (rate < min_rate) all_ok = false;
  }
  if (!checked_any) {
    result.passed = false;
    result.detail = src + " has no dependents other than " + slow_dst;
    return result;
  }
  result.passed = all_ok;
  result.detail = detail;
  return result;
}

inline CheckResult PostHocChecker::has_latency_slo(
    const std::string& src, const std::string& dst, double percentile,
    Duration bound, bool with_rule, const std::string& id_pattern) const {
  CheckResult result;
  result.name = "HasLatencySLO(" + fmt_edge(src, dst) + ", p" +
                std::to_string(static_cast<int>(percentile)) + " <= " +
                format_duration(bound) + ")";
  std::vector<Duration> latencies;
  store_->for_each(replies_query(src, dst, id_pattern),
                   [&latencies, with_rule](const LogRecord& r) {
                     if (with_rule) {
                       latencies.push_back(r.latency);
                       return;
                     }
                     if (synthesized_by_gremlin(r)) return;
                     const Duration adjusted = r.latency - r.injected_delay;
                     latencies.push_back(
                         adjusted < kDurationZero ? kDurationZero : adjusted);
                   });
  if (latencies.empty()) {
    result.passed = false;
    result.detail = "no replies observed on " + fmt_edge(src, dst);
    return result;
  }
  std::sort(latencies.begin(), latencies.end());
  size_t rank = static_cast<size_t>(
      percentile / 100.0 * static_cast<double>(latencies.size()));
  if (rank >= latencies.size()) rank = latencies.size() - 1;
  const Duration observed = latencies[rank];
  result.passed = observed <= bound;
  result.detail = "p" + std::to_string(static_cast<int>(percentile)) +
                  " = " + format_duration(observed) + " over " +
                  std::to_string(latencies.size()) + " replies (bound " +
                  format_duration(bound) + ")";
  return result;
}

inline CheckResult PostHocChecker::error_rate_below(
    const std::string& src, const std::string& dst, double max_fraction,
    const std::string& id_pattern) const {
  CheckResult result;
  result.name = "ErrorRateBelow(" + fmt_edge(src, dst) + ", " +
                std::to_string(max_fraction) + ")";
  size_t failed = 0;
  const size_t replies =
      store_->for_each(replies_query(src, dst, id_pattern),
                       [&failed](const LogRecord& r) {
                         if (r.failed()) ++failed;
                       });
  if (replies == 0) {
    result.passed = false;
    result.detail = "no replies observed on " + fmt_edge(src, dst);
    return result;
  }
  const double rate =
      static_cast<double>(failed) / static_cast<double>(replies);
  result.passed = rate <= max_fraction;
  result.detail = std::to_string(failed) + "/" + std::to_string(replies) +
                  " replies failed (" + std::to_string(rate) + ")";
  return result;
}

inline CheckResult PostHocChecker::failure_contained(
    const std::string& origin_service, const std::string& id_pattern) const {
  CheckResult result;
  result.name = "FailureContained(" + origin_service + ")";
  logstore::Query q;
  q.id_pattern = id_pattern;
  q.any_kind = true;
  // Trace reconstruction needs the whole flow in hand; this is the one check
  // that genuinely materializes records.
  const RecordList records = store_->query(q);
  const auto traces = trace::build_traces(records);

  size_t originating_flows = 0;
  size_t escaped = 0;
  for (const auto& t : traces) {
    const auto chain = t.failure_chain();
    if (chain.empty()) continue;
    if (t.spans[chain.back()].dst != origin_service) continue;
    ++originating_flows;
    // The chain runs root → origin; containment means the root span (the
    // user-facing call) did not itself fail.
    if (t.spans[chain.front()].failed() &&
        !t.spans[chain.front()].parent.has_value()) {
      ++escaped;
    }
  }
  if (originating_flows == 0) {
    result.passed = false;
    result.detail = "no failures originating at " + origin_service +
                    " observed; cannot verify containment";
    return result;
  }
  result.passed = escaped == 0;
  result.detail = std::to_string(originating_flows) +
                  " flows failed at " + origin_service + "; " +
                  std::to_string(escaped) + " escaped to the user-facing edge";
  return result;
}

// CheckSpec dispatch over the reference checker (the former
// CheckSpec::evaluate).
inline CheckResult evaluate(const campaign::CheckSpec& spec,
                            const PostHocChecker& checker,
                            const control::LoadResult& load) {
  using Kind = campaign::CheckSpec::Kind;
  switch (spec.kind) {
    case Kind::kHasTimeouts:
      return checker.has_timeouts(spec.a, spec.bound, spec.id_pattern);
    case Kind::kHasBoundedRetries:
      return checker.has_bounded_retries(spec.a, spec.b, spec.threshold,
                                         spec.id_pattern);
    case Kind::kHasCircuitBreaker:
      return checker.has_circuit_breaker(spec.a, spec.b, spec.threshold,
                                         spec.bound, spec.success_threshold,
                                         spec.id_pattern);
    case Kind::kHasBulkhead:
      return checker.has_bulkhead(spec.a, spec.b, spec.value,
                                  spec.id_pattern);
    case Kind::kHasLatencySlo:
      return checker.has_latency_slo(spec.a, spec.b, spec.percentile,
                                     spec.bound, spec.with_rule,
                                     spec.id_pattern);
    case Kind::kErrorRateBelow:
      return checker.error_rate_below(spec.a, spec.b, spec.value,
                                      spec.id_pattern);
    case Kind::kFailureContained:
      return checker.failure_contained(spec.a, spec.id_pattern);
    case Kind::kMaxUserFailures: {
      const auto max_failures = static_cast<size_t>(spec.value);
      CheckResult r;
      r.name = "MaxUserFailures(" + std::to_string(max_failures) + ")";
      r.passed = load.failures <= max_failures;
      r.detail = std::to_string(load.failures) + "/" +
                 std::to_string(load.total()) +
                 " injected requests saw a user-visible failure";
      return r;
    }
  }
  CheckResult r;
  r.name = "UnknownCheck";
  r.detail = "unhandled check kind";
  return r;
}

}  // namespace gremlin::reference
