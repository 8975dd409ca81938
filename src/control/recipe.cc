#include "control/recipe.h"

#include <memory>

namespace gremlin::control {

TestSession::TestSession(sim::Simulation* sim, topology::AppGraph graph)
    : sim_(sim),
      owned_graph_(
          std::make_unique<topology::AppGraph>(std::move(graph))),
      graph_(owned_graph_.get()),
      translator_(graph_),
      orchestrator_(&sim->deployment()) {}

TestSession::TestSession(sim::Simulation* sim,
                         const topology::AppGraph* graph)
    : sim_(sim),
      graph_(graph),
      translator_(graph_),
      orchestrator_(&sim->deployment()) {}

Result<size_t> TestSession::apply(const FailureSpec& spec, RuleCache* cache) {
  if (spec.kind == FailureSpec::Kind::kInstanceCrash) {
    // The network-level rules below make dependents see resets; this hook
    // makes the service itself refuse work it would otherwise accept during
    // the outage (requests already past the dependents' sidecars). Scheduled
    // per-apply, never cached: the rule cache only memoizes translation.
    auto outage =
        sim_->schedule_service_outage(spec.b, spec.after, spec.window);
    if (!outage.ok()) return outage.error();
  }
  if (cache != nullptr) {
    // Borrow the cached expansion: installing reads the rules and copies
    // them into the agents, so no owned vector is needed here.
    auto rules = cache->lookup(translator_, spec);
    if (!rules.ok()) return rules.error();
    auto installed = orchestrator_.install(*rules.value());
    if (!installed.ok()) return installed.error();
    return rules.value()->size();
  }
  auto rules = translator_.translate(spec);
  if (!rules.ok()) return rules.error();
  auto installed = orchestrator_.install(rules.value());
  if (!installed.ok()) return installed.error();
  return rules.value().size();
}

Result<size_t> TestSession::apply_all(const std::vector<FailureSpec>& specs) {
  size_t total = 0;
  for (const auto& spec : specs) {
    auto n = apply(spec);
    if (!n.ok()) return n;
    total += n.value();
  }
  return total;
}

VoidResult TestSession::clear_faults() { return orchestrator_.clear_rules(); }

Result<size_t> TestSession::apply_for(const FailureSpec& spec,
                                      Duration active) {
  auto rules = translator_.translate(spec);
  if (!rules.ok()) return rules.error();
  auto installed = orchestrator_.install(rules.value());
  if (!installed.ok()) return installed.error();
  // Heal: drop exactly these rules when the outage window ends.
  sim_->schedule(active, [this, rules = rules.value()] {
    (void)orchestrator_.remove(rules);
  });
  return rules.value().size();
}

LoadResult TestSession::run_load(const std::string& client,
                                 const std::string& target, size_t count) {
  LoadOptions options;
  options.count = count;
  return run_load(client, target, options);
}

LoadResult TestSession::run_load(const std::string& client,
                                 const std::string& target,
                                 const LoadOptions& options) {
  // Pool-allocated: the shared handle is recycled by the simulation's pool
  // across warm runs instead of costing a control block per experiment.
  auto result = make_pooled<LoadResult>(&sim_->memory());
  result->latencies.resize(options.count);
  result->statuses.resize(options.count);

  // Intern the edge once; every request then routes through the flat
  // service table instead of a per-request string lookup.
  const Symbol client_sym(client);
  const Symbol target_sym(target);

  if (options.closed_loop) {
    // Issue request i+1 only once request i completed. The function holds
    // itself weakly: a strong self-capture is a reference cycle that leaks
    // it. Whoever invokes it (this frame, then the gap timer) holds it.
    auto send = std::make_shared<std::function<void(size_t)>>();
    std::weak_ptr<std::function<void(size_t)>> self = send;
    *send = [this, result, options, client_sym, target_sym, self](size_t i) {
      if (i >= options.count) return;
      auto send = self.lock();
      sim::SimRequest req;
      req.request_id = options.id_prefix + std::to_string(i);
      req.uri = options.uri;
      req.method = options.method;
      req.body = options.body;
      const TimePoint sent = sim_->now();
      sim_->inject(client_sym, target_sym, std::move(req),
                   [this, result, options, i, sent, send](
                       const sim::SimResponse& resp) {
                     result->latencies[i] = sim_->now() - sent;
                     result->statuses[i] =
                         resp.connection_reset || resp.timed_out ? 0
                                                                 : resp.status;
                     ++result->completed;
                     if (resp.failed()) ++result->failures;
                     if (response_observer_) response_observer_(resp.failed());
                     sim_->schedule_timer(options.gap,
                                          [send, i] { (*send)(i + 1); });
                   });
    };
    (*send)(0);
  } else {
    // Capture the options by pointer: every scheduled event runs (or is
    // cancelled) inside sim_->run() below, while `options` is still alive.
    // Capturing by value would copy four strings per request and spill the
    // event action's inline buffer — a heap allocation per injected request.
    const LoadOptions* opts = &options;
    for (size_t i = 0; i < options.count; ++i) {
      const TimePoint at = sim_->now() + options.gap * static_cast<int64_t>(i);
      sim_->schedule_at(at, [this, result, opts, i, client_sym,
                             target_sym] {
        sim::SimRequest req;
        req.request_id = opts->id_prefix + std::to_string(i);
        req.uri = opts->uri;
        req.method = opts->method;
        req.body = opts->body;
        const TimePoint sent = sim_->now();
        sim_->inject(client_sym, target_sym, std::move(req),
                     [this, result, i, sent](const sim::SimResponse& resp) {
                       result->latencies[i] = sim_->now() - sent;
                       result->statuses[i] = resp.connection_reset ||
                                                     resp.timed_out
                                                 ? 0
                                                 : resp.status;
                       ++result->completed;
                       if (resp.failed()) ++result->failures;
                       if (response_observer_)
                         response_observer_(resp.failed());
                     });
      });
    }
  }
  if (options.horizon > kDurationZero) {
    sim_->run_until(sim_->now() + options.horizon);
  } else {
    sim_->run();
  }
  result->stopped_early = sim_->stop_requested();
  // Move the vectors out instead of copying them; any cancelled events that
  // still hold the shared handle only ever destroy it.
  return std::move(*result);
}

VoidResult TestSession::collect() {
  return orchestrator_.collect_logs(&sim_->log_store());
}

bool TestSession::check(const CheckResult& result) {
  results_.push_back(result);
  return result.passed;
}

bool TestSession::all_passed() const {
  for (const auto& r : results_) {
    if (!r.passed) return false;
  }
  return true;
}

std::string TestSession::report() const {
  std::string out;
  for (const auto& r : results_) {
    out += (r.passed ? "[PASS] " : "[FAIL] ") + r.name + " — " + r.detail +
           "\n";
  }
  return out;
}

}  // namespace gremlin::control
