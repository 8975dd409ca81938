// AssertionChecker: the control-plane component that validates recipes'
// assertions against the collected event logs (Section 4.2, Table 3).
//
// Wraps the central LogStore with the Table 3 queries and the pattern checks
// that validate presence of the resiliency patterns of Section 2.1. Every
// check returns a CheckResult carrying a human-readable explanation — the
// "quick feedback" the paper argues systematic testing must provide.
//
// The checks themselves are the incremental state machines of
// control/online.h: each pattern method builds its machine, streams the
// machine's query() over the store into it, and finalizes it. The campaign
// runner streams the same machines while an experiment runs, so online and
// post-hoc checking share one implementation per check kind.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "control/assertions.h"
#include "logstore/store.h"
#include "topology/graph.h"

namespace gremlin::control {

class IncrementalCheck;
struct LoadSummary;

struct CheckResult {
  bool passed = false;
  std::string name;    // e.g. "HasBoundedRetries(serviceA, serviceB, 5)"
  std::string detail;  // why it passed / failed

  explicit operator bool() const { return passed; }
};

// Stable identity of a verdict set's *failure mode*: the sorted, deduplicated
// names of every failed check, joined with " + " (empty when everything
// passed). Two runs with equal signatures violated the same assertions —
// the equivalence the fault-space shrinker preserves while minimizing a
// failing experiment, so it never "shrinks" one bug into a different one.
std::string failure_signature(const std::vector<CheckResult>& results);

class AssertionChecker {
 public:
  // `graph` is optional; HasBulkhead needs it to enumerate dependents.
  explicit AssertionChecker(const logstore::LogStore* store,
                            const topology::AppGraph* graph = nullptr)
      : store_(store), graph_(graph) {}

  // --- Table 3 queries ---
  RecordList get_requests(const std::string& src, const std::string& dst,
                          const std::string& id_pattern = "*") const;
  RecordList get_replies(const std::string& src, const std::string& dst,
                         const std::string& id_pattern = "*") const;
  // Requests and replies on the edge, merged and time-sorted (the natural
  // input for Combine chains).
  RecordList get_exchanges(const std::string& src, const std::string& dst,
                           const std::string& id_pattern = "*") const;

  // --- pattern checks (Table 3) ---

  // `service` must reply to each of its upstream callers within
  // max_latency. Latencies are evaluated without Gremlin's interference on
  // the measured edge itself (withRule=false), so injected upstream delays
  // don't mask the verdict, while downstream slowness — which a timeout
  // pattern must bound — shows through.
  CheckResult has_timeouts(const std::string& service, Duration max_latency,
                           const std::string& id_pattern = "*") const;

  // Per request flow: after a failed call from src to dst, at most
  // max_tries additional attempts are made for that flow.
  CheckResult has_bounded_retries(const std::string& src,
                                  const std::string& dst, int max_tries,
                                  const std::string& id_pattern = "*") const;

  // The paper's windowed formulation: once `threshold_failures` replies with
  // `status` are observed, at most `max_more` requests follow within
  // `window` (implemented as a Combine chain).
  CheckResult has_bounded_retries_windowed(
      const std::string& src, const std::string& dst, int status,
      size_t threshold_failures, Duration window, size_t max_more,
      const std::string& id_pattern = "*") const;

  // After `threshold` consecutive failed replies on src→dst, src must send
  // no requests for `tdelta` (the breaker's open period). If traffic
  // resumes afterwards, `success_threshold` successful probes should close
  // the breaker (reported in the detail).
  //
  // Caveat (inherent to network-level validation): "no requests after the
  // failures" is vacuously true when the workload ends at the same time as
  // the failure run. For meaningful quiet-period evidence, drive load past
  // the expected open interval.
  CheckResult has_circuit_breaker(const std::string& src,
                                  const std::string& dst, int threshold,
                                  Duration tdelta, int success_threshold,
                                  const std::string& id_pattern = "*") const;

  // While slow_dst degrades, src must keep issuing requests to each of its
  // other dependents at >= min_rate requests/second. Requires the graph.
  CheckResult has_bulkhead(const std::string& src,
                           const std::string& slow_dst, double min_rate,
                           const std::string& id_pattern = "*") const;

  // --- additional service-level checks (extensions beyond Table 3) ---

  // The given percentile (0..100) of observed reply latencies on src→dst
  // stays within `bound`. with_rule=false discounts Gremlin-injected delay.
  CheckResult has_latency_slo(const std::string& src, const std::string& dst,
                              double percentile, Duration bound,
                              bool with_rule = true,
                              const std::string& id_pattern = "*") const;

  // The fraction of failed replies (resets / timeouts / 5xx) on src→dst is
  // at most `max_fraction`.
  CheckResult error_rate_below(const std::string& src,
                               const std::string& dst, double max_fraction,
                               const std::string& id_pattern = "*") const;

  // Failure containment, via flow-trace reconstruction: every flow whose
  // failure *originated* at a call into `origin_service` must have been
  // absorbed before reaching the flow's root (user-facing) span. This is
  // the cascading-failure question behind most of Table 1: "when X fails,
  // does the user notice?"
  CheckResult failure_contained(const std::string& origin_service,
                                const std::string& id_pattern = "*") const;

  // Streams the records of `check`'s query() over the store into it (none
  // for load-based checks) and returns its finalized result.
  CheckResult evaluate(IncrementalCheck& check,
                       const LoadSummary& load) const;

  const logstore::LogStore& store() const { return *store_; }
  const topology::AppGraph* graph() const { return graph_; }

 private:
  const logstore::LogStore* store_;
  const topology::AppGraph* graph_;
};

}  // namespace gremlin::control
