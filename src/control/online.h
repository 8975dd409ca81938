// Assertion checking as incremental state machines: the one implementation
// of every Table 3 check, fed one LogRecord at a time.
//
// Each check is a small state machine fed the time-sorted record stream,
// and reports a sticky three-valued verdict:
//
//   kUndecided — more records could still change the outcome
//   kPass      — the check provably passes no matter what follows
//   kFail      — the check provably fails no matter what follows
//
// The same machines serve both ways of checking. The campaign runner streams
// records into them *while the experiment runs* and, with early exit on,
// stops the simulation the moment every attached check is decided. The
// post-hoc AssertionChecker (control/checker.h) feeds them the records of
// each machine's query() over a finished LogStore. Sticky means a verdict,
// once reached, is final: every early kFail/kPass equals the verdict over
// the *complete* run, which is what makes stopping early sound.
//
// finalize() produces the CheckResult (name, verdict and detail) over the
// records fed so far. tests/posthoc_reference.h keeps an independent
// post-hoc implementation of every check; the differential fuzz in
// tests/online_checker_test.cc compares it with the machines and with
// AssertionChecker, and checks stickiness.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/glob.h"
#include "control/checker.h"
#include "logstore/store.h"
#include "topology/graph.h"

namespace gremlin::control {

enum class Verdict { kUndecided, kPass, kFail };

const char* to_string(Verdict v);

// Load-level outcome summary, passed to finalize() for checks that report
// user-visible failure counts.
struct LoadSummary {
  size_t total = 0;
  size_t failures = 0;
};

class IncrementalCheck {
 public:
  virtual ~IncrementalCheck() = default;

  // Feed one observation. Records must arrive in the (timestamp, arrival)
  // order LogStore queries visit them in; each check applies its own filter
  // and ignores unrelated records. Feeding continues after a verdict is
  // reached so finalize() details stay exact on full streams.
  virtual void offer(const logstore::LogRecord& r) = 0;

  // Load-level signal: one user-visible response completed. Only consumed
  // by checks with wants_records() == false.
  virtual void on_user_response(bool /*failed*/) {}

  // False for checks decided purely by load outcomes (no log records).
  virtual bool wants_records() const { return true; }

  // The LogStore query that visits every record offer() would act on, in
  // the order offer() expects: what a post-hoc evaluation streams in.
  // Meaningful only when wants_records().
  virtual logstore::Query query() const { return {}; }

  Verdict verdict() const { return verdict_; }
  bool decided() const { return verdict_ != Verdict::kUndecided; }

  // The result over the records offered so far (at end of stream: the
  // check's final result). Const, so it may be called more than once.
  virtual CheckResult finalize(const LoadSummary& load) const = 0;

 protected:
  // Sticky: the first non-undecided verdict wins.
  void decide(Verdict v) {
    if (verdict_ == Verdict::kUndecided) verdict_ = v;
  }

 private:
  Verdict verdict_ = Verdict::kUndecided;
};

// --- incremental Combine (Section 4.2) --------------------------------------
//
// Streaming equivalent of control::Combine::evaluate: the same step
// vocabulary, fed one record at a time. A step that fails sinks the whole
// chain (sticky kFail); once the last step is satisfied the chain is
// sticky kPass regardless of what follows — exactly the post-hoc semantics,
// where evaluate() returns as soon as a step fails and ignores records after
// the last consumed prefix.
class IncrementalCombine {
 public:
  IncrementalCombine& check_status(int status, size_t num_match,
                                   bool with_rule = true);
  IncrementalCombine& at_most_requests(Duration tdelta, bool with_rule,
                                       size_t max);
  IncrementalCombine& no_requests_for(Duration tdelta);
  IncrementalCombine& at_least_requests(Duration tdelta, bool with_rule,
                                        size_t min);

  void feed(const logstore::LogRecord& r);
  Verdict verdict() const { return verdict_; }

  // End-of-stream: closes the remaining steps over the empty remainder and
  // returns the chain result (== Combine::evaluate over the full stream).
  bool finish();

 private:
  struct Step {
    enum class Kind {
      kCheckStatus,
      kAtMostRequests,
      kNoRequestsFor,
      kAtLeastRequests,
    };
    Kind kind = Kind::kCheckStatus;
    int status = 0;
    size_t num = 0;  // num_match / max / min
    Duration tdelta{};
    bool with_rule = true;
  };

  void close_step(bool satisfied);

  std::vector<Step> steps_;
  size_t current_ = 0;
  TimePoint anchor_{};
  bool have_anchor_ = false;
  size_t count_ = 0;             // per-step counter, reset on step close
  TimePoint window_last_{};      // last record consumed by the open window
  bool window_consumed_ = false;
  Verdict verdict_ = Verdict::kUndecided;
};

// --- factories for the pattern checks ---------------------------------------
//
// Parameters and results are those of the AssertionChecker methods of the
// same name, which evaluate these machines over a finished LogStore.

std::unique_ptr<IncrementalCheck> make_incremental_timeouts(
    std::string service, Duration max_latency, std::string id_pattern = "*");

std::unique_ptr<IncrementalCheck> make_incremental_bounded_retries(
    std::string src, std::string dst, int max_tries,
    std::string id_pattern = "*");

std::unique_ptr<IncrementalCheck> make_incremental_bounded_retries_windowed(
    std::string src, std::string dst, int status, size_t threshold_failures,
    Duration window, size_t max_more, std::string id_pattern = "*");

std::unique_ptr<IncrementalCheck> make_incremental_circuit_breaker(
    std::string src, std::string dst, int threshold, Duration tdelta,
    int success_threshold, std::string id_pattern = "*");

// `graph` may be null (the check then fails with a "no application graph"
// detail). Dependency order is captured at construction.
std::unique_ptr<IncrementalCheck> make_incremental_bulkhead(
    const topology::AppGraph* graph, std::string src, std::string slow_dst,
    double min_rate, std::string id_pattern = "*");

std::unique_ptr<IncrementalCheck> make_incremental_latency_slo(
    std::string src, std::string dst, double percentile, Duration bound,
    bool with_rule = true, std::string id_pattern = "*");

std::unique_ptr<IncrementalCheck> make_incremental_error_rate(
    std::string src, std::string dst, double max_fraction,
    std::string id_pattern = "*");

// Flow-trace containment: keeps a copy of every record matching
// `id_pattern` and, at finalize, rebuilds the flow traces and counts the
// failures originating at `origin_service` that reached a root span. A
// later record can still add or fail a flow, so it never decides early: a
// panel holding it never reports all_decided().
std::unique_ptr<IncrementalCheck> make_incremental_failure_contained(
    std::string origin_service, std::string id_pattern = "*");

// Load-based: fails the moment more than `max_failures` user-visible
// failures occurred; passes the moment all `expected_total` responses
// arrived with the budget intact. wants_records() == false.
std::unique_ptr<IncrementalCheck> make_incremental_max_user_failures(
    size_t max_failures, size_t expected_total);

// --- collection -------------------------------------------------------------

// The set of incremental checks attached to one experiment.
class OnlineChecker {
 public:
  void add(std::unique_ptr<IncrementalCheck> check);

  size_t size() const { return checks_.size(); }
  IncrementalCheck* check(size_t i) { return checks_[i].get(); }

  // True when any check consumes log records (false for purely load-based
  // check sets, which skip log streaming entirely).
  bool wants_records() const;

  void offer(const logstore::LogRecord& r);
  void on_user_response(bool failed);

  // True when every check holds a final verdict — the early-exit condition.
  // False for an empty panel.
  bool all_decided() const;

 private:
  std::vector<std::unique_ptr<IncrementalCheck>> checks_;
};

}  // namespace gremlin::control
