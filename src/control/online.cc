#include "control/online.h"

#include <algorithm>
#include <utility>

#include "common/intern.h"
#include "control/assertions.h"
#include "trace/trace.h"

namespace gremlin::control {

using logstore::LogRecord;
using logstore::MessageKind;

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kUndecided:
      return "undecided";
    case Verdict::kPass:
      return "pass";
    case Verdict::kFail:
      return "fail";
  }
  return "?";
}

namespace {

std::string fmt_edge(const std::string& src, const std::string& dst) {
  return src + " -> " + dst;
}

// A service name resolved lazily against the symbol table (shard-aware:
// on a campaign worker the record symbols come from the worker's shard).
// Checks can be constructed before every service they reference has logged
// (and thus interned) its name; resolution retries until the name exists.
struct LazySymbol {
  std::string name;  // empty = wildcard
  mutable std::optional<Symbol> sym;

  bool matches(Symbol s) const {
    if (name.empty()) return true;
    if (!sym) sym = find_symbol(name);
    return sym.has_value() && *sym == s;
  }
};

// The (src, dst, kind, id) filter every record-consuming check applies;
// mirrors logstore::Query semantics, so a check fed the full time-sorted
// stream sees exactly the records its query() visits in a store.
struct RecordFilter {
  LazySymbol src;
  LazySymbol dst;
  MessageKind kind = MessageKind::kRequest;
  bool any_kind = false;
  Glob glob;

  RecordFilter(std::string src_name, std::string dst_name, MessageKind k,
               bool any, std::string id_pattern)
      : src{std::move(src_name), std::nullopt},
        dst{std::move(dst_name), std::nullopt},
        kind(k),
        any_kind(any),
        glob(id_pattern.empty() ? "*" : std::move(id_pattern)) {}

  bool matches(const LogRecord& r) const {
    if (!src.matches(r.src)) return false;
    if (!dst.matches(r.dst)) return false;
    if (!any_kind && r.kind != kind) return false;
    if (!glob.match_all() && !glob.matches(r.request_id)) return false;
    return true;
  }

  logstore::Query query() const {
    logstore::Query q;
    q.src = src.name;
    q.dst = dst.name;
    q.id_pattern = glob.pattern();
    q.kind = kind;
    q.any_kind = any_kind;
    return q;
  }
};

// --- HasTimeouts ------------------------------------------------------------

class IncTimeouts final : public IncrementalCheck {
 public:
  IncTimeouts(std::string service, Duration max_latency,
              std::string id_pattern)
      : service_(std::move(service)),
        max_latency_(max_latency),
        filter_("", service_, MessageKind::kRequest, /*any=*/true,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    ++fed_;
    observation_end_ = r.timestamp;
    if (r.kind == MessageKind::kRequest) {
      pending_[r.src].push_back(r.timestamp);
      return;
    }
    ++replies_;
    auto& queue = pending_[r.src];
    if (!queue.empty()) queue.pop_front();
    const Duration adjusted = r.latency > r.injected_delay
                                  ? r.latency - r.injected_delay
                                  : kDurationZero;
    worst_ = std::max(worst_, adjusted);
    if (adjusted > max_latency_) {
      ++violations_;
      // A reply over the bound stays a violation no matter how many more
      // replies arrive: the full-run verdict is already Fail.
      decide(Verdict::kFail);
    }
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasTimeouts(" + service_ + ", " +
                  format_duration(max_latency_) + ")";
    if (fed_ == 0) {
      result.passed = false;
      result.detail = "no traffic into " + service_ +
                      " observed; cannot verify the pattern";
      return result;
    }
    size_t unanswered = 0;
    Duration worst = worst_;
    for (const auto& [src, queue] : pending_) {
      for (const TimePoint sent : queue) {
        if (observation_end_ - sent > max_latency_) {
          ++unanswered;
          worst = std::max(worst, observation_end_ - sent);
        }
      }
    }
    if (replies_ == 0 && unanswered == 0) {
      result.passed = false;
      result.detail = "no replies from " + service_ +
                      " observed; cannot verify the pattern";
      return result;
    }
    result.passed = violations_ == 0 && unanswered == 0;
    result.detail = std::to_string(replies_) + " replies, worst " +
                    format_duration(worst) + ", " +
                    std::to_string(violations_) + " over the " +
                    format_duration(max_latency_) + " bound, " +
                    std::to_string(unanswered) + " requests never answered";
    return result;
  }

 private:
  const std::string service_;
  const Duration max_latency_;
  RecordFilter filter_;
  std::map<Symbol, std::deque<TimePoint>> pending_;
  TimePoint observation_end_{};
  Duration worst_ = kDurationZero;
  size_t violations_ = 0;
  size_t replies_ = 0;
  size_t fed_ = 0;
};

// --- HasBoundedRetries ------------------------------------------------------

class IncBoundedRetries final : public IncrementalCheck {
 public:
  IncBoundedRetries(std::string src, std::string dst, int max_tries,
                    std::string id_pattern)
      : src_(std::move(src)),
        dst_(std::move(dst)),
        max_tries_(max_tries),
        allowed_(static_cast<size_t>(max_tries) + 1),
        filter_(src_, dst_, MessageKind::kRequest, /*any=*/true,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    ++fed_;
    Flow& f = flows_[r.request_id];
    if (r.kind == MessageKind::kRequest) {
      ++f.attempts;
    } else if (r.failed()) {
      f.saw_failure = true;
    }
    // Attempts only grow and saw_failure is sticky, so a flow over budget
    // is a violation in the full run too.
    if (f.saw_failure && f.attempts > allowed_) decide(Verdict::kFail);
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasBoundedRetries(" + fmt_edge(src_, dst_) + ", " +
                  std::to_string(max_tries_) + ")";
    if (fed_ == 0) {
      result.passed = false;
      result.detail = "no traffic observed on " + fmt_edge(src_, dst_);
      return result;
    }
    size_t failed_flows = 0;
    size_t worst_attempts = 0;
    size_t violations = 0;
    for (const auto& [id, f] : flows_) {
      if (!f.saw_failure) continue;
      ++failed_flows;
      worst_attempts = std::max(worst_attempts, f.attempts);
      if (f.attempts > allowed_) ++violations;
    }
    if (failed_flows == 0) {
      result.passed = false;
      result.detail = "no failed calls observed on " + fmt_edge(src_, dst_) +
                      "; cannot verify the pattern";
      return result;
    }
    result.passed = violations == 0;
    result.detail = std::to_string(failed_flows) +
                    " flows saw failures; max " +
                    std::to_string(worst_attempts) + " attempts per flow (" +
                    std::to_string(allowed_) + " allowed); " +
                    std::to_string(violations) + " violations";
    return result;
  }

 private:
  struct Flow {
    size_t attempts = 0;
    bool saw_failure = false;
  };

  const std::string src_;
  const std::string dst_;
  const int max_tries_;
  const size_t allowed_;
  RecordFilter filter_;
  std::map<std::string, Flow, std::less<>> flows_;
  size_t fed_ = 0;
};

// --- HasBoundedRetriesWindowed (Combine chain) ------------------------------

class IncBoundedRetriesWindowed final : public IncrementalCheck {
 public:
  IncBoundedRetriesWindowed(std::string src, std::string dst, int status,
                            size_t threshold_failures, Duration window,
                            size_t max_more, std::string id_pattern)
      : src_(std::move(src)),
        dst_(std::move(dst)),
        status_(status),
        threshold_failures_(threshold_failures),
        window_(window),
        max_more_(max_more),
        filter_(src_, dst_, MessageKind::kRequest, /*any=*/true,
                std::move(id_pattern)) {
    chain_.check_status(status, threshold_failures)
        .at_most_requests(window, /*with_rule=*/true, max_more);
  }

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    ++fed_;
    chain_.feed(r);
    decide(chain_.verdict());
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasBoundedRetriesWindowed(" + fmt_edge(src_, dst_) + ")";
    if (fed_ == 0) {
      result.passed = false;
      result.detail = "no traffic observed on " + fmt_edge(src_, dst_);
      return result;
    }
    IncrementalCombine closing = chain_;  // finish() on a copy: finalize is
    result.passed = closing.finish();     // const and may be re-invoked
    result.detail =
        result.passed
            ? "after " + std::to_string(threshold_failures_) + " status-" +
                  std::to_string(status_) + " replies, at most " +
                  std::to_string(max_more_) + " requests followed within " +
                  format_duration(window_)
            : "more than " + std::to_string(max_more_) +
                  " requests within " + format_duration(window_) + " of " +
                  std::to_string(threshold_failures_) +
                  " failures (or failures never occurred)";
    return result;
  }

 private:
  const std::string src_;
  const std::string dst_;
  const int status_;
  const size_t threshold_failures_;
  const Duration window_;
  const size_t max_more_;
  RecordFilter filter_;
  IncrementalCombine chain_;
  size_t fed_ = 0;
};

// --- HasCircuitBreaker ------------------------------------------------------

class IncCircuitBreaker final : public IncrementalCheck {
 public:
  IncCircuitBreaker(std::string src, std::string dst, int threshold,
                    Duration tdelta, int success_threshold,
                    std::string id_pattern)
      : src_(std::move(src)),
        dst_(std::move(dst)),
        threshold_(threshold),
        tdelta_(tdelta),
        success_threshold_(success_threshold),
        filter_(src_, dst_, MessageKind::kRequest, /*any=*/true,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    ++fed_;
    const bool is_request = r.kind == MessageKind::kRequest;
    if (!tripped_) {
      // Phase 1: find the first run of `threshold` consecutive failed
      // replies (requests don't interrupt a run).
      if (is_request) return;
      if (r.failed()) {
        if (++consecutive_ >= threshold_) {
          tripped_ = true;
          trip_time_ = r.timestamp;
        }
      } else {
        consecutive_ = 0;
      }
      return;
    }
    // Phase 2: the breaker must suppress requests for tdelta after the trip.
    if (is_request) {
      if (r.timestamp - trip_time_ < tdelta_) {
        ++requests_while_open_;
        // One leaked request is already the full-run verdict.
        decide(Verdict::kFail);
      } else {
        if (!first_probe_) first_probe_ = r.timestamp;
        ++requests_after_close_window_;
      }
    } else if (first_probe_ && !r.failed()) {
      ++successes_after_open_;
    }
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasCircuitBreaker(" + fmt_edge(src_, dst_) + ", " +
                  std::to_string(threshold_) + ", " +
                  format_duration(tdelta_) + ", " +
                  std::to_string(success_threshold_) + ")";
    if (fed_ == 0) {
      result.passed = false;
      result.detail = "no traffic observed on " + fmt_edge(src_, dst_);
      return result;
    }
    if (!tripped_) {
      result.passed = false;
      result.detail = "never observed " + std::to_string(threshold_) +
                      " consecutive failures; cannot verify the pattern";
      return result;
    }
    if (requests_while_open_ > 0) {
      result.passed = false;
      result.detail = std::to_string(requests_while_open_) +
                      " requests sent within " + format_duration(tdelta_) +
                      " of the trip (breaker missing or leaky)";
      return result;
    }
    result.passed = true;
    std::string detail = "no requests for " + format_duration(tdelta_) +
                         " after " + std::to_string(threshold_) +
                         " consecutive failures";
    if (first_probe_) {
      detail += "; probe traffic resumed (" +
                std::to_string(requests_after_close_window_) + " requests, " +
                std::to_string(successes_after_open_) + " successes";
      detail += successes_after_open_ >= success_threshold_
                    ? ", breaker closed)"
                    : ", breaker not yet closed)";
    } else {
      detail += "; no probe traffic observed after the open window";
    }
    result.detail = detail;
    return result;
  }

 private:
  const std::string src_;
  const std::string dst_;
  const int threshold_;
  const Duration tdelta_;
  const int success_threshold_;
  RecordFilter filter_;
  int consecutive_ = 0;
  bool tripped_ = false;
  TimePoint trip_time_{};
  size_t requests_while_open_ = 0;
  std::optional<TimePoint> first_probe_;
  int successes_after_open_ = 0;
  size_t requests_after_close_window_ = 0;
  size_t fed_ = 0;
};

// --- HasBulkhead ------------------------------------------------------------

class IncBulkhead final : public IncrementalCheck {
 public:
  IncBulkhead(const topology::AppGraph* graph, std::string src,
              std::string slow_dst, double min_rate, std::string id_pattern)
      : src_(std::move(src)),
        slow_dst_(std::move(slow_dst)),
        min_rate_(min_rate),
        have_graph_(graph != nullptr),
        filter_(src_, "", MessageKind::kRequest, /*any=*/false,
                std::move(id_pattern)) {
    if (graph != nullptr) {
      // Capture dependency order now: finalize renders per-dep rates in
      // the graph's dependency order.
      for (const auto& dep : graph->dependencies(src_)) {
        if (dep == slow_dst_) continue;
        deps_.push_back(DepState{dep, LazySymbol{dep, std::nullopt}});
      }
    }
  }

  void offer(const LogRecord& r) override {
    if (deps_.empty() || !filter_.matches(r)) return;
    for (auto& dep : deps_) {
      if (!dep.sym.matches(r.dst)) continue;
      if (dep.count == 0) dep.first = r.timestamp;
      dep.last = r.timestamp;
      ++dep.count;
      return;
    }
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasBulkhead(" + src_ + ", slow=" + slow_dst_ +
                  ", rate>=" + std::to_string(min_rate_) + "/s)";
    if (!have_graph_) {
      result.passed = false;
      result.detail = "no application graph supplied; cannot enumerate the "
                      "other dependents of " + src_;
      return result;
    }
    if (deps_.empty()) {
      result.passed = false;
      result.detail = src_ + " has no dependents other than " + slow_dst_;
      return result;
    }
    std::string detail;
    bool all_ok = true;
    for (const auto& dep : deps_) {
      const double rate = (dep.count < 2 || dep.last <= dep.first)
                              ? 0.0
                              : static_cast<double>(dep.count - 1) /
                                    to_seconds(dep.last - dep.first);
      if (!detail.empty()) detail += "; ";
      detail += dep.name + ": " + std::to_string(rate) + " req/s";
      if (rate < min_rate_) all_ok = false;
    }
    result.passed = all_ok;
    result.detail = detail;
    return result;
  }

 private:
  struct DepState {
    std::string name;
    LazySymbol sym;
    size_t count = 0;
    TimePoint first{}, last{};
  };

  const std::string src_;
  const std::string slow_dst_;
  const double min_rate_;
  const bool have_graph_;
  RecordFilter filter_;
  std::vector<DepState> deps_;
};

// --- HasLatencySLO ----------------------------------------------------------

class IncLatencySlo final : public IncrementalCheck {
 public:
  IncLatencySlo(std::string src, std::string dst, double percentile,
                Duration bound, bool with_rule, std::string id_pattern)
      : src_(std::move(src)),
        dst_(std::move(dst)),
        percentile_(percentile),
        bound_(bound),
        with_rule_(with_rule),
        filter_(src_, dst_, MessageKind::kResponse, /*any=*/false,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    if (with_rule_) {
      latencies_.push_back(r.latency);
      return;
    }
    if (synthesized_by_gremlin(r)) return;
    const Duration adjusted = r.latency - r.injected_delay;
    latencies_.push_back(adjusted < kDurationZero ? kDurationZero : adjusted);
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "HasLatencySLO(" + fmt_edge(src_, dst_) + ", p" +
                  std::to_string(static_cast<int>(percentile_)) + " <= " +
                  format_duration(bound_) + ")";
    if (latencies_.empty()) {
      result.passed = false;
      result.detail = "no replies observed on " + fmt_edge(src_, dst_);
      return result;
    }
    std::vector<Duration> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(percentile_ / 100.0 *
                                      static_cast<double>(sorted.size()));
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    const Duration observed = sorted[rank];
    result.passed = observed <= bound_;
    result.detail = "p" + std::to_string(static_cast<int>(percentile_)) +
                    " = " + format_duration(observed) + " over " +
                    std::to_string(sorted.size()) + " replies (bound " +
                    format_duration(bound_) + ")";
    return result;
  }

 private:
  const std::string src_;
  const std::string dst_;
  const double percentile_;
  const Duration bound_;
  const bool with_rule_;
  RecordFilter filter_;
  std::vector<Duration> latencies_;
};

// --- ErrorRateBelow ---------------------------------------------------------

class IncErrorRate final : public IncrementalCheck {
 public:
  IncErrorRate(std::string src, std::string dst, double max_fraction,
               std::string id_pattern)
      : src_(std::move(src)),
        dst_(std::move(dst)),
        max_fraction_(max_fraction),
        filter_(src_, dst_, MessageKind::kResponse, /*any=*/false,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    if (!filter_.matches(r)) return;
    ++replies_;
    if (r.failed()) ++failed_;
    // The rate can still move either way; no early verdict.
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "ErrorRateBelow(" + fmt_edge(src_, dst_) + ", " +
                  std::to_string(max_fraction_) + ")";
    if (replies_ == 0) {
      result.passed = false;
      result.detail = "no replies observed on " + fmt_edge(src_, dst_);
      return result;
    }
    const double rate =
        static_cast<double>(failed_) / static_cast<double>(replies_);
    result.passed = rate <= max_fraction_;
    result.detail = std::to_string(failed_) + "/" + std::to_string(replies_) +
                    " replies failed (" + std::to_string(rate) + ")";
    return result;
  }

 private:
  const std::string src_;
  const std::string dst_;
  const double max_fraction_;
  RecordFilter filter_;
  size_t failed_ = 0;
  size_t replies_ = 0;
};

// --- FailureContained -------------------------------------------------------

class IncFailureContained final : public IncrementalCheck {
 public:
  IncFailureContained(std::string origin_service, std::string id_pattern)
      : origin_service_(std::move(origin_service)),
        filter_("", "", MessageKind::kRequest, /*any=*/true,
                std::move(id_pattern)) {}

  void offer(const LogRecord& r) override {
    // Trace reconstruction needs whole flows in hand, so this is the one
    // check that keeps copies of its records. No early verdict: a later
    // record can still add a flow or fail a root span.
    if (filter_.matches(r)) records_.push_back(r);
  }

  logstore::Query query() const override { return filter_.query(); }

  CheckResult finalize(const LoadSummary&) const override {
    CheckResult result;
    result.name = "FailureContained(" + origin_service_ + ")";
    const auto traces = trace::build_traces(records_);

    size_t originating_flows = 0;
    size_t escaped = 0;
    for (const auto& t : traces) {
      const auto chain = t.failure_chain();
      if (chain.empty()) continue;
      if (t.spans[chain.back()].dst != origin_service_) continue;
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
      result.detail = "no failures originating at " + origin_service_ +
                      " observed; cannot verify containment";
      return result;
    }
    result.passed = escaped == 0;
    result.detail = std::to_string(originating_flows) + " flows failed at " +
                    origin_service_ + "; " + std::to_string(escaped) +
                    " escaped to the user-facing edge";
    return result;
  }

 private:
  const std::string origin_service_;
  RecordFilter filter_;
  logstore::RecordList records_;
};

// --- MaxUserFailures --------------------------------------------------------

class IncMaxUserFailures final : public IncrementalCheck {
 public:
  IncMaxUserFailures(size_t max_failures, size_t expected_total)
      : max_failures_(max_failures), expected_total_(expected_total) {}

  bool wants_records() const override { return false; }
  void offer(const LogRecord&) override {}

  void on_user_response(bool failed) override {
    ++seen_;
    if (failed) ++failures_;
    if (failures_ > max_failures_) {
      decide(Verdict::kFail);
    } else if (expected_total_ > 0 && seen_ == expected_total_) {
      // Every injected request completed with the failure budget intact; no
      // further user-visible response can arrive.
      decide(Verdict::kPass);
    }
  }

  CheckResult finalize(const LoadSummary& load) const override {
    CheckResult result;
    result.name = "MaxUserFailures(" + std::to_string(max_failures_) + ")";
    result.passed = load.failures <= max_failures_;
    result.detail = std::to_string(load.failures) + "/" +
                    std::to_string(load.total) +
                    " injected requests saw a user-visible failure";
    return result;
  }

 private:
  const size_t max_failures_;
  const size_t expected_total_;
  size_t seen_ = 0;
  size_t failures_ = 0;
};

}  // namespace

// --- IncrementalCombine -----------------------------------------------------

IncrementalCombine& IncrementalCombine::check_status(int status,
                                                     size_t num_match,
                                                     bool with_rule) {
  steps_.push_back({Step::Kind::kCheckStatus, status, num_match, {},
                    with_rule});
  return *this;
}

IncrementalCombine& IncrementalCombine::at_most_requests(Duration tdelta,
                                                         bool with_rule,
                                                         size_t max) {
  steps_.push_back({Step::Kind::kAtMostRequests, 0, max, tdelta, with_rule});
  return *this;
}

IncrementalCombine& IncrementalCombine::no_requests_for(Duration tdelta) {
  steps_.push_back({Step::Kind::kNoRequestsFor, 0, 0, tdelta, true});
  return *this;
}

IncrementalCombine& IncrementalCombine::at_least_requests(Duration tdelta,
                                                          bool with_rule,
                                                          size_t min) {
  steps_.push_back({Step::Kind::kAtLeastRequests, 0, min, tdelta, with_rule});
  return *this;
}

void IncrementalCombine::close_step(bool satisfied) {
  if (!satisfied) {
    verdict_ = Verdict::kFail;
    return;
  }
  // anchor advances only when the step consumed at least one record
  // (Combine::evaluate: `if (consumed > 0)`).
  if (window_consumed_) anchor_ = window_last_;
  window_consumed_ = false;
  count_ = 0;
  ++current_;
  if (current_ >= steps_.size() && verdict_ == Verdict::kUndecided) {
    verdict_ = Verdict::kPass;
  }
}

void IncrementalCombine::feed(const logstore::LogRecord& r) {
  if (verdict_ != Verdict::kUndecided) return;
  if (!have_anchor_) {
    anchor_ = r.timestamp;
    have_anchor_ = true;
  }
  // One record can close several steps (a zero-match status step consumes
  // nothing; a window step closes on the first record beyond its window and
  // hands that record to the next step), so loop until it is consumed.
  while (verdict_ == Verdict::kUndecided && current_ < steps_.size()) {
    const Step& s = steps_[current_];
    switch (s.kind) {
      case Step::Kind::kCheckStatus: {
        if (s.num == 0) {
          close_step(true);  // satisfied immediately, consuming nothing
          continue;
        }
        const bool match = r.kind == MessageKind::kResponse &&
                           (s.with_rule || !synthesized_by_gremlin(r)) &&
                           r.status == s.status;
        if (match && ++count_ >= s.num) {
          // Consumed through the num'th match, inclusive.
          window_consumed_ = true;
          window_last_ = r.timestamp;
          close_step(true);
        }
        return;  // the record was consumed by the scan either way
      }
      case Step::Kind::kAtMostRequests:
      case Step::Kind::kAtLeastRequests: {
        if (r.timestamp - anchor_ > s.tdelta) {
          // Window closed strictly before this record; evaluate, then offer
          // the record to the next step.
          const bool ok = s.kind == Step::Kind::kAtMostRequests
                              ? count_ <= s.num
                              : count_ >= s.num;
          close_step(ok);
          continue;
        }
        window_consumed_ = true;
        window_last_ = r.timestamp;
        if (r.kind == MessageKind::kRequest &&
            (s.with_rule || r.fault == logstore::FaultKind::kNone)) {
          ++count_;
          // An at-most budget, once blown, stays blown for the full run.
          if (s.kind == Step::Kind::kAtMostRequests && count_ > s.num) {
            verdict_ = Verdict::kFail;
          }
        }
        return;
      }
      case Step::Kind::kNoRequestsFor: {
        if (r.timestamp - anchor_ >= s.tdelta) {  // exclusive upper bound
          close_step(true);
          continue;
        }
        window_consumed_ = true;
        window_last_ = r.timestamp;
        if (r.kind == MessageKind::kRequest) verdict_ = Verdict::kFail;
        return;
      }
    }
  }
}

bool IncrementalCombine::finish() {
  if (verdict_ != Verdict::kUndecided) return verdict_ == Verdict::kPass;
  // End of stream: the open step evaluates over what it consumed; steps
  // never reached see an empty remainder (Combine::evaluate on an exhausted
  // span).
  while (current_ < steps_.size()) {
    const Step& s = steps_[current_];
    bool ok = true;
    switch (s.kind) {
      case Step::Kind::kCheckStatus:
        ok = s.num == 0;  // partial scans never satisfy a positive match
        break;
      case Step::Kind::kAtMostRequests:
        ok = count_ <= s.num;
        break;
      case Step::Kind::kNoRequestsFor:
        ok = true;
        break;
      case Step::Kind::kAtLeastRequests:
        ok = count_ >= s.num;
        break;
    }
    close_step(ok);
    if (verdict_ == Verdict::kFail) return false;
  }
  verdict_ = Verdict::kPass;
  return true;
}

// --- factories --------------------------------------------------------------

std::unique_ptr<IncrementalCheck> make_incremental_timeouts(
    std::string service, Duration max_latency, std::string id_pattern) {
  return std::make_unique<IncTimeouts>(std::move(service), max_latency,
                                       std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_bounded_retries(
    std::string src, std::string dst, int max_tries, std::string id_pattern) {
  return std::make_unique<IncBoundedRetries>(std::move(src), std::move(dst),
                                             max_tries, std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_bounded_retries_windowed(
    std::string src, std::string dst, int status, size_t threshold_failures,
    Duration window, size_t max_more, std::string id_pattern) {
  return std::make_unique<IncBoundedRetriesWindowed>(
      std::move(src), std::move(dst), status, threshold_failures, window,
      max_more, std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_circuit_breaker(
    std::string src, std::string dst, int threshold, Duration tdelta,
    int success_threshold, std::string id_pattern) {
  return std::make_unique<IncCircuitBreaker>(std::move(src), std::move(dst),
                                             threshold, tdelta,
                                             success_threshold,
                                             std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_bulkhead(
    const topology::AppGraph* graph, std::string src, std::string slow_dst,
    double min_rate, std::string id_pattern) {
  return std::make_unique<IncBulkhead>(graph, std::move(src),
                                       std::move(slow_dst), min_rate,
                                       std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_latency_slo(
    std::string src, std::string dst, double percentile, Duration bound,
    bool with_rule, std::string id_pattern) {
  return std::make_unique<IncLatencySlo>(std::move(src), std::move(dst),
                                         percentile, bound, with_rule,
                                         std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_error_rate(
    std::string src, std::string dst, double max_fraction,
    std::string id_pattern) {
  return std::make_unique<IncErrorRate>(std::move(src), std::move(dst),
                                        max_fraction, std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_failure_contained(
    std::string origin_service, std::string id_pattern) {
  return std::make_unique<IncFailureContained>(std::move(origin_service),
                                               std::move(id_pattern));
}

std::unique_ptr<IncrementalCheck> make_incremental_max_user_failures(
    size_t max_failures, size_t expected_total) {
  return std::make_unique<IncMaxUserFailures>(max_failures, expected_total);
}

// --- OnlineChecker ----------------------------------------------------------

void OnlineChecker::add(std::unique_ptr<IncrementalCheck> check) {
  checks_.push_back(std::move(check));
}

bool OnlineChecker::wants_records() const {
  return std::any_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c->wants_records(); });
}

void OnlineChecker::offer(const logstore::LogRecord& r) {
  for (auto& c : checks_) c->offer(r);
}

void OnlineChecker::on_user_response(bool failed) {
  for (auto& c : checks_) c->on_user_response(failed);
}

bool OnlineChecker::all_decided() const {
  return !checks_.empty() &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c->decided(); });
}

}  // namespace gremlin::control
