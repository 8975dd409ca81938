#include "control/checker.h"

#include <set>

#include "control/online.h"

namespace gremlin::control {

using logstore::LogRecord;

namespace {

logstore::Query exchanges_query(const std::string& src, const std::string& dst,
                                const std::string& id_pattern) {
  logstore::Query q;
  q.src = src;
  q.dst = dst;
  q.id_pattern = id_pattern;
  q.any_kind = true;
  return q;
}

}  // namespace

RecordList AssertionChecker::get_requests(const std::string& src,
                                          const std::string& dst,
                                          const std::string& id_pattern) const {
  return store_->get_requests(src, dst, id_pattern);
}

RecordList AssertionChecker::get_replies(const std::string& src,
                                         const std::string& dst,
                                         const std::string& id_pattern) const {
  return store_->get_replies(src, dst, id_pattern);
}

RecordList AssertionChecker::get_exchanges(
    const std::string& src, const std::string& dst,
    const std::string& id_pattern) const {
  return store_->query(exchanges_query(src, dst, id_pattern));
}

CheckResult AssertionChecker::evaluate(IncrementalCheck& check,
                                       const LoadSummary& load) const {
  if (check.wants_records()) {
    store_->for_each(check.query(),
                     [&check](const LogRecord& r) { check.offer(r); });
  }
  return check.finalize(load);
}

CheckResult AssertionChecker::has_timeouts(const std::string& service,
                                           Duration max_latency,
                                           const std::string& id_pattern) const {
  return evaluate(*make_incremental_timeouts(service, max_latency, id_pattern),
                  LoadSummary{});
}

CheckResult AssertionChecker::has_bounded_retries(
    const std::string& src, const std::string& dst, int max_tries,
    const std::string& id_pattern) const {
  return evaluate(
      *make_incremental_bounded_retries(src, dst, max_tries, id_pattern),
      LoadSummary{});
}

CheckResult AssertionChecker::has_bounded_retries_windowed(
    const std::string& src, const std::string& dst, int status,
    size_t threshold_failures, Duration window, size_t max_more,
    const std::string& id_pattern) const {
  return evaluate(*make_incremental_bounded_retries_windowed(
                      src, dst, status, threshold_failures, window, max_more,
                      id_pattern),
                  LoadSummary{});
}

CheckResult AssertionChecker::has_circuit_breaker(
    const std::string& src, const std::string& dst, int threshold,
    Duration tdelta, int success_threshold,
    const std::string& id_pattern) const {
  return evaluate(*make_incremental_circuit_breaker(src, dst, threshold, tdelta,
                                                    success_threshold,
                                                    id_pattern),
                  LoadSummary{});
}

CheckResult AssertionChecker::has_bulkhead(const std::string& src,
                                           const std::string& slow_dst,
                                           double min_rate,
                                           const std::string& id_pattern) const {
  return evaluate(*make_incremental_bulkhead(graph_, src, slow_dst, min_rate,
                                             id_pattern),
                  LoadSummary{});
}

CheckResult AssertionChecker::has_latency_slo(
    const std::string& src, const std::string& dst, double percentile,
    Duration bound, bool with_rule, const std::string& id_pattern) const {
  return evaluate(*make_incremental_latency_slo(src, dst, percentile, bound,
                                                with_rule, id_pattern),
                  LoadSummary{});
}

CheckResult AssertionChecker::error_rate_below(
    const std::string& src, const std::string& dst, double max_fraction,
    const std::string& id_pattern) const {
  return evaluate(
      *make_incremental_error_rate(src, dst, max_fraction, id_pattern),
      LoadSummary{});
}

CheckResult AssertionChecker::failure_contained(
    const std::string& origin_service, const std::string& id_pattern) const {
  return evaluate(
      *make_incremental_failure_contained(origin_service, id_pattern),
      LoadSummary{});
}

std::string failure_signature(const std::vector<CheckResult>& results) {
  // The signature must identify a failure *mode*, not one particular run of
  // it: shrinking compares signatures across runs, and online checking can
  // terminate a run (truncating its log) the moment every verdict is final.
  // Sorting the deduplicated failed-check names makes the signature
  // independent of check order, duplicate checks, and — because verdicts
  // are sticky and truncation-stable — of how much of the log a run kept
  // (tests/online_checker_test.cc pins the exact bytes).
  std::set<std::string> failed;
  for (const auto& r : results) {
    if (!r.passed) failed.insert(r.name);
  }
  std::string out;
  for (const auto& name : failed) {
    if (!out.empty()) out += " + ";
    out += name;
  }
  return out;
}

}  // namespace gremlin::control
