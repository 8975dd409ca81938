#include "sim/service.h"

#include <cassert>
#include <utility>

#include "sim/simulation.h"

namespace gremlin::sim {
namespace {

using faults::FaultDecision;
using faults::FaultKind;
using faults::MessageView;
using logstore::LogRecord;
using logstore::MessageKind;

// OutboundCall: one logical dependency call from a service instance,
// implementing the caller-side failure-handling pipeline:
//
//   bulkhead admission → [per attempt: circuit-breaker check → sidecar rule
//   evaluation (Abort/Delay/Modify) → network → callee → network → response-
//   side rules → timeout race] → retry loop → fallback.
//
// The sidecar logs a request record when the message leaves the caller and a
// response record when a response (real or synthesized by an Abort) is
// observed, with the Gremlin-injected delay accounted separately so the
// Assertion Checker can evaluate latencies with or without interference.
//
// The call lives exactly as long as some pending event closure holds it.
// The attempt's timeout timer is one such closure; on_attempt_result
// cancels it when the attempt settles, so a call that finished before its
// timeout is freed — with the request context its callback holds — as soon
// as the event that settled it returns, not `timeout` later.
class OutboundCall : public std::enable_shared_from_this<OutboundCall>,
                     public SnapshotParticipant {
 public:
  OutboundCall(ServiceInstance* caller, ServiceInstance::DepInfo& info,
               SimRequest request, ResponseCallback cb)
      : caller_(caller),
        info_(info),
        dependency_(info.symbol.view()),
        request_(std::move(request)),
        cb_(std::move(cb)),
        policy_(*info.policy),
        src_sym_(caller->agent()->service_symbol()),
        dst_sym_(info.symbol) {
    // Saved event actions copy the shared_ptrs capturing this call, so a
    // restored sibling re-runs them against this same object: register so
    // the snapshot reloads the mutable fields below for each sibling.
    if (caller_->sim().snapshot_capture()) {
      caller_->sim().attach_participant(this);
    }
  }

  void start() {
    if (policy_.has_bulkhead()) {
      // Isolated per-dependency pool: admission is immediate or rejected.
      auto& bulkhead = caller_->bulkhead_for(info_);
      if (!bulkhead.try_acquire()) {
        policy_failure(SimResponse::error(503, "bulkhead-saturated"));
        return;
      }
      holding_bulkhead_ = true;
      start_attempt();
      return;
    }
    if (caller_->shared_pool_enabled()) {
      // Shared pool: the call waits for a free slot, so one slow dependency
      // can starve every other outbound call of this instance.
      auto self = shared_from_this();
      holding_shared_ = true;
      caller_->acquire_shared_slot([self] { self->start_attempt(); });
      return;
    }
    start_attempt();
  }

 private:
  Simulation& sim() { return caller_->sim(); }
  const std::string& caller_name() const {
    return caller_->service().name();
  }

  void start_attempt() {
    if (policy_.has_circuit_breaker()) {
      auto& breaker = caller_->breaker_for(info_);
      if (!breaker.allow_request(sim().now())) {
        policy_failure(SimResponse::error(503, "circuit-open"));
        return;
      }
    }
    const uint64_t gen = ++generation_;
    const TimePoint attempt_start = sim().now();
    if (policy_.has_timeout()) {
      auto self = shared_from_this();
      timeout_ = sim().schedule_timer(policy_.timeout, [self, gen,
                                                        attempt_start] {
        // A rival outcome settled the attempt first. Normally it cancelled
        // this timer, but a timer restored from a snapshot or placed on the
        // heap fallback has no live handle and runs out here.
        if (gen != self->generation_) return;
        // The caller gave up: its sidecar observes the client closing the
        // connection and records the exchange as concluded with no
        // response (status 0) — which is how a timeout becomes visible to
        // the Assertion Checker from the network alone.
        self->log_response(SimResponse::timeout(), attempt_start,
                           kDurationZero, FaultKind::kNone, Symbol());
        self->on_attempt_result(gen, SimResponse::timeout());
      });
    }
    send_attempt(gen, attempt_start);
  }

  void send_attempt(uint64_t gen, TimePoint attempt_start) {
    // armed() gates the MessageView build and the engine mutex off the
    // fault-free hot path (the common case for baseline runs and for every
    // sidecar a faulted experiment doesn't target).
    FaultDecision decision;
    if (faults::RuleEngine& engine = caller_->agent()->engine();
        engine.armed()) {
      MessageView view;
      view.kind = MessageKind::kRequest;
      view.src = caller_name();
      view.dst = dependency_;
      view.request_id = request_.request_id;
      view.method = request_.method.view();
      view.uri = request_.uri.view();
      view.body = request_.body;
      view.now = sim().now();
      decision = engine.evaluate(view);
    }

    if (caller_->agent()->recording()) {
      LogRecord rec;
      rec.timestamp = sim().now();
      rec.request_id = request_.request_id;
      rec.src = src_sym_;
      rec.dst = dst_sym_;
      rec.kind = MessageKind::kRequest;
      rec.method = request_.method;
      rec.uri = request_.uri;
      rec.fault = decision.action;
      rec.rule_id = decision.rule_id;
      if (decision.action == FaultKind::kDelay) {
        rec.injected_delay = decision.delay;
      }
      caller_->agent()->log(std::move(rec));
    }

    switch (decision.action) {
      case FaultKind::kAbort: {
        SimResponse resp =
            decision.is_tcp_reset()
                ? SimResponse::reset()
                : SimResponse::error(decision.abort_code, "gremlin-abort");
        log_response(resp, attempt_start, kDurationZero, FaultKind::kAbort,
                     decision.rule_id);
        // Moved into the capture (a const member would make the closure
        // copy-only and spill it to the heap per aborted attempt).
        sim().schedule_timer(kDurationZero,
                             [self = shared_from_this(), gen,
                              resp = std::move(resp)] {
                               self->on_attempt_result(gen, resp);
                             });
        return;
      }
      case FaultKind::kDelay: {
        const Duration injected = decision.delay;
        // Rule-injected delays are constant per rule, so they lane well.
        sim().schedule_timer(decision.delay,
                             [self = shared_from_this(), gen, attempt_start,
                              injected] {
                               self->forward(gen, attempt_start, nullptr,
                                             injected);
                             });
        return;
      }
      case FaultKind::kModify: {
        // Modify is the one fault that rewrites the message: only then does
        // the attempt pay for a private copy of the request.
        auto modified = std::make_shared<SimRequest>(request_);
        faults::RuleEngine::apply_modify(decision, &modified->body);
        forward(gen, attempt_start, std::move(modified), kDurationZero);
        return;
      }
      case FaultKind::kNone:
        // The untampered request is forwarded as-is; the closures below
        // reference the immutable request_ through `self` instead of
        // copying four strings per attempt.
        forward(gen, attempt_start, nullptr, kDurationZero);
        return;
    }
  }

  void forward(uint64_t gen, TimePoint attempt_start,
               std::shared_ptr<const SimRequest> modified, Duration injected) {
    const Duration out_latency =
        sim().network().latency(caller_name(), dependency_, &sim().rng());
    ServiceInstance* target = caller_->pick_dep_instance(info_);
    if (target == nullptr) {
      // No such service: the connection cannot be established. The caller
      // observes a reset after the network round trip would have failed.
      sim().schedule(out_latency, [self = shared_from_this(), gen,
                                   attempt_start, injected] {
        self->receive_wire_response(gen, attempt_start, SimResponse::reset(),
                                    injected);
      });
      return;
    }
    sim().schedule(out_latency, [self = shared_from_this(), gen,
                                 attempt_start, injected, target,
                                 modified = std::move(modified)] {
      const SimRequest& req = modified ? *modified : self->request_;
      target->handle_request(req, [self, gen, attempt_start, injected](
                                      const SimResponse& response) {
        const Duration back_latency = self->sim().network().latency(
            self->caller_name(), self->dependency_, &self->sim().rng());
        // Init-capture keeps the closure member non-const: a `const
        // SimResponse` member has no usable move constructor, which fails
        // InlineFunction's nothrow-move test and heap-allocates the closure
        // on every hop.
        self->sim().schedule(back_latency,
                             [self, gen, attempt_start, resp = response,
                              injected] {
                               self->receive_wire_response(
                                   gen, attempt_start, resp, injected);
                             });
      });
    });
  }

  // A response arrived at the caller's sidecar over the (simulated) wire:
  // apply response-side rules, log the observation, race with the timeout.
  void receive_wire_response(uint64_t gen, TimePoint attempt_start,
                             SimResponse resp, Duration injected) {
    FaultDecision decision;
    if (faults::RuleEngine& engine = caller_->agent()->engine();
        engine.armed()) {
      MessageView view;
      view.kind = MessageKind::kResponse;
      view.src = caller_name();
      view.dst = dependency_;
      view.request_id = request_.request_id;
      view.status = resp.status;
      view.body = resp.body;
      view.now = sim().now();
      decision = engine.evaluate(view);
    }

    switch (decision.action) {
      case FaultKind::kAbort: {
        const SimResponse replaced =
            decision.is_tcp_reset()
                ? SimResponse::reset()
                : SimResponse::error(decision.abort_code, "gremlin-abort");
        log_response(replaced, attempt_start, injected, FaultKind::kAbort,
                     decision.rule_id);
        on_attempt_result(gen, replaced);
        return;
      }
      case FaultKind::kDelay: {
        const Duration total_injected = injected + decision.delay;
        const Symbol rule_id = decision.rule_id;
        auto self = shared_from_this();
        sim().schedule_timer(decision.delay, [self, gen, attempt_start, resp,
                                              total_injected, rule_id] {
          self->log_response(resp, attempt_start, total_injected,
                             FaultKind::kDelay, rule_id);
          self->on_attempt_result(gen, resp);
        });
        return;
      }
      case FaultKind::kModify: {
        faults::RuleEngine::apply_modify(decision, &resp.body);
        log_response(resp, attempt_start, injected, FaultKind::kModify,
                     decision.rule_id);
        on_attempt_result(gen, resp);
        return;
      }
      case FaultKind::kNone: {
        // Request-side injected delay still annotates the observation.
        const FaultKind fault = injected > kDurationZero ? FaultKind::kDelay
                                                         : FaultKind::kNone;
        log_response(resp, attempt_start, injected, fault, Symbol());
        on_attempt_result(gen, resp);
        return;
      }
    }
  }

  void log_response(const SimResponse& resp, TimePoint attempt_start,
                    Duration injected, FaultKind fault, Symbol rule_id) {
    if (!caller_->agent()->recording()) return;
    LogRecord rec;
    rec.timestamp = sim().now();
    rec.request_id = request_.request_id;
    rec.src = src_sym_;
    rec.dst = dst_sym_;
    rec.kind = MessageKind::kResponse;
    rec.uri = request_.uri;
    rec.status = resp.connection_reset ? 0 : resp.status;
    rec.latency = sim().now() - attempt_start;
    rec.fault = fault;
    rec.rule_id = rule_id;
    rec.injected_delay = injected;
    caller_->agent()->log(std::move(rec));
  }

  void on_attempt_result(uint64_t gen, const SimResponse& resp) {
    if (gen != generation_) return;  // a rival outcome already settled it
    ++generation_;                   // invalidate the losing outcome
    ++completed_attempts_;
    // Every caller runs inside an event closure holding this call, so
    // dropping the timeout's reference cannot free it mid-method. A timer
    // that already fired, or an empty handle, makes this a no-op.
    sim().cancel_timer(timeout_);

    const bool failed = resp.failed();
    if (policy_.has_circuit_breaker()) {
      auto& breaker = caller_->breaker_for(info_);
      if (failed) {
        breaker.record_failure(sim().now());
      } else {
        breaker.record_success(sim().now());
      }
    }
    if (!failed) {
      finish(resp);
      return;
    }
    if (policy_.has_retries() &&
        completed_attempts_ <= policy_.retry.max_retries) {
      const Duration backoff =
          policy_.retry.backoff_before(completed_attempts_);
      auto self = shared_from_this();
      sim().schedule_timer(backoff, [self] { self->start_attempt(); });
      return;
    }
    policy_failure(resp);
  }

  // All attempts exhausted / admission denied: serve the fallback if the
  // policy has one, otherwise surface the failure to the caller's handler.
  void policy_failure(const SimResponse& resp) {
    if (policy_.fallback.has_value()) {
      finish(SimResponse{policy_.fallback->status, policy_.fallback->body,
                         false, false});
      return;
    }
    finish(resp);
  }

  void finish(const SimResponse& resp) {
    if (finished_) return;
    finished_ = true;
    if (holding_bulkhead_) {
      caller_->bulkhead_for(info_).release();
      holding_bulkhead_ = false;
    }
    if (holding_shared_) {
      caller_->release_shared_slot();
      holding_shared_ = false;
    }
    if (cb_) cb_(resp);
  }

  // SnapshotParticipant: generation_ in bits 0-31, completed_attempts_ in
  // bits 32-47, the three flags in bits 48-50. cb_ is never nulled (finish
  // invokes it in place), so a reloaded call can finish again.
  std::shared_ptr<void> snapshot_pin() override { return shared_from_this(); }
  uint64_t snapshot_state() const override {
    uint64_t state = generation_ & 0xffffffffULL;
    state |= (static_cast<uint64_t>(completed_attempts_) & 0xffffULL) << 32;
    if (holding_bulkhead_) state |= 1ULL << 48;
    if (holding_shared_) state |= 1ULL << 49;
    if (finished_) state |= 1ULL << 50;
    return state;
  }
  void snapshot_load(uint64_t state) override {
    // The restore started a new queue epoch, so no handle this call holds
    // can reach a restored timer; its restored timeout (if any) runs out as
    // a no-op. Every sibling starts with the same empty handle.
    timeout_ = {};
    generation_ = state & 0xffffffffULL;
    completed_attempts_ = static_cast<int>((state >> 32) & 0xffffULL);
    holding_bulkhead_ = (state & (1ULL << 48)) != 0;
    holding_shared_ = (state & (1ULL << 49)) != 0;
    finished_ = (state & (1ULL << 50)) != 0;
  }

  ServiceInstance* caller_;
  // Per-dependency cache slot, resolved by the caller before construction;
  // every policy decision (breaker admission/reporting, bulkhead, instance
  // pick) indexes through it instead of re-finding the dependency by name.
  // The slot outlives the call: dep_slots_ entries are never erased.
  ServiceInstance::DepInfo& info_;
  // View of the interned dependency name (stable for process lifetime) —
  // no per-call string copy.
  const std::string_view dependency_;
  SimRequest request_;
  ResponseCallback cb_;
  // Reference into the service config (stable for the simulation's
  // lifetime); copying would clone the fallback/breaker payloads per call.
  const resilience::CallPolicy& policy_;
  // Resolved from caches at construction; every log record then copies
  // 4-byte handles (request_.method/.uri are already symbols).
  const Symbol src_sym_;
  const Symbol dst_sym_;
  EventQueue::TimerHandle timeout_;  // the current attempt's timeout
  uint64_t generation_ = 0;
  int completed_attempts_ = 0;
  bool holding_bulkhead_ = false;
  bool holding_shared_ = false;
  bool finished_ = false;
};

}  // namespace

// ---------------------------------------------------------------- Context

RequestContext::RequestContext(ServiceInstance* instance, SimRequest request,
                               ResponseCallback reply)
    : instance_(instance),
      request_(std::move(request)),
      reply_(std::move(reply)) {
  if (instance_->sim().snapshot_capture()) {
    instance_->sim().attach_participant(this);
  }
}

TimePoint RequestContext::now() const { return instance_->sim().now(); }

Simulation& RequestContext::sim() { return instance_->sim(); }

const std::string& RequestContext::service_name() const {
  return instance_->service().name();
}

void RequestContext::call(const std::string& dependency, SimRequest req,
                          ResponseCallback cb) {
  if (req.request_id.empty()) req.request_id = request_.request_id;
  instance_->call_dependency(dependency, std::move(req), std::move(cb));
}

void RequestContext::call(const std::string& dependency,
                          ResponseCallback cb) {
  SimRequest req;
  req.request_id = request_.request_id;
  req.uri = request_.uri;
  call(dependency, std::move(req), std::move(cb));
}

void RequestContext::defer(Duration delay, std::function<void()> fn) {
  auto self = shared_from_this();
  instance_->sim().schedule(delay, [self, fn = std::move(fn)] { fn(); });
}

void RequestContext::respond(SimResponse response) {
  if (responded_) return;
  responded_ = true;
  instance_->finish_processing();
  if (reply_) reply_(response);
}

void RequestContext::respond(int status, std::string body) {
  respond(SimResponse{status, std::move(body), false, false});
}

// --------------------------------------------------------------- Instance

ServiceInstance::ServiceInstance(Simulation* sim, SimService* service,
                                 int index)
    : sim_(sim),
      service_(service),
      instance_id_(service->name() + "/" + std::to_string(index)),
      slot_(sim->instances().add_instance()),
      agent_(std::make_shared<SimAgent>(service->name(), instance_id_,
                                        sim->config().seed)) {
  // Resolve every declared dependency (and every policy-only entry) to a
  // dep slot once, at deployment: the default handler then calls by index
  // and the hop path never walks the name map.
  const ServiceConfig& cfg = service->config();
  declared_.reserve(cfg.dependencies.size());
  for (const auto& dep : cfg.dependencies) {
    dep_info(dep);
    declared_.push_back(dep_index_.find(dep)->second);
  }
  for (const auto& [dep, policy] : cfg.policies) dep_info(dep);
}

void ServiceInstance::handle_request(const SimRequest& request,
                                     ResponseCallback reply) {
  InstanceTable& table = sim_->instances();
  if (table.down(slot_)) {
    // Crashed process: the connection is refused. A fresh event so the
    // caller's stack unwinds before it sees the reset, matching every other
    // response path.
    sim_->schedule_timer(kDurationZero, [reply = std::move(reply)]() mutable {
      reply(SimResponse::reset());
    });
    return;
  }
  ++table.requests_handled(slot_);
  const int cap = service_->config().max_concurrent_requests;
  if (cap > 0 && table.server_in_flight(slot_) >= cap) {
    // Server saturated: queue FIFO until a worker frees up.
    server_queue_.push_back(
        [this, request, reply = std::move(reply)]() mutable {
          begin_processing(request, std::move(reply));
        });
    table.server_queue_peak(slot_) =
        std::max(table.server_queue_peak(slot_),
                 static_cast<uint32_t>(server_queue_.size()));
    return;
  }
  begin_processing(request, std::move(reply));
}

void ServiceInstance::begin_processing(const SimRequest& request,
                                       ResponseCallback reply) {
  ++sim_->instances().server_in_flight(slot_);
  const ServiceConfig& cfg = service_->config();
  Duration processing = cfg.processing_time;
  if (cfg.processing_jitter > 0.0) {
    const double scale =
        1.0 + cfg.processing_jitter * (2.0 * sim_->rng().next_double() - 1.0);
    processing = Duration(static_cast<int64_t>(
        std::max(0.0, static_cast<double>(processing.count()) * scale)));
  }
  // The context releases the worker slot in respond(); wrapping the reply
  // here would spill the ResponseCallback inline buffer (the wrapper is
  // larger than the callback it wraps) and heap-allocate per request.
  // Contexts come from the simulation's pool: a warm world recycles them
  // instead of paying a shared_ptr control block per request per hop.
  auto ctx = make_pooled<RequestContext>(&sim_->memory(), this, request,
                                         std::move(reply));
  // Constant per service config (or per slowdown rule when scaled), so the
  // queue lanes it instead of paying heap sifts per request.
  sim_->schedule_timer(processing, [this, ctx = std::move(ctx)] {
    if (service_->config().handler) {
      service_->config().handler(ctx);
    } else {
      run_default_handler(ctx, 0);
    }
  });
}

void ServiceInstance::finish_processing() {
  int32_t& in_flight = sim_->instances().server_in_flight(slot_);
  if (in_flight > 0) --in_flight;
  if (!server_queue_.empty()) {
    auto next = std::move(server_queue_.front());
    server_queue_.pop_front();
    // Fresh event so the completing request's stack unwinds first.
    sim_->schedule_timer(kDurationZero, std::move(next));
  }
}

void ServiceInstance::run_default_handler(std::shared_ptr<RequestContext> ctx,
                                          size_t next_dep) {
  const auto& deps = service_->config().dependencies;
  if (next_dep >= deps.size()) {
    ctx->respond(200, service_->ok_body());
    return;
  }
  // The dep slot was resolved at deployment, so the hop path indexes
  // straight into it — no name lookup. Capture the dependency by index,
  // not by string: the callback then fits the ResponseCallback inline
  // buffer instead of spilling to the heap on every hop. The body strings
  // are kept short enough for SSO — response bodies are copied at each
  // level of the callback chain, so a heap-backed body would allocate
  // several times per failed request.
  SimRequest req;
  req.request_id = ctx->request().request_id;
  req.uri = ctx->request().uri;
  call_dependency(declared_dep(next_dep), std::move(req),
                  [this, ctx, next_dep](const SimResponse& resp) {
    if (resp.failed()) {
      // Naive propagation: a failed dependency (that the CallPolicy did not
      // absorb) fails the whole request.
      ctx->respond(500,
                   "dep-fail:" + service_->config().dependencies[next_dep]);
      return;
    }
    run_default_handler(ctx, next_dep + 1);
  });
}

void ServiceInstance::call_dependency(Symbol dependency, SimRequest request,
                                      ResponseCallback cb) {
  call_dependency(dep_info(dependency), std::move(request), std::move(cb));
}

void ServiceInstance::call_dependency(DepInfo& info, SimRequest request,
                                      ResponseCallback cb) {
  // Pool-allocated: one recycled granule per call instead of a fresh
  // control block + object on every dependency hop.
  auto call = make_pooled<OutboundCall>(&sim_->memory(), this, info,
                                        std::move(request), std::move(cb));
  call->start();
}

const resilience::CallPolicy& ServiceInstance::policy_for(
    const std::string& dep) const {
  const auto& cfg = service_->config();
  const auto it = cfg.policies.find(dep);
  return it != cfg.policies.end() ? it->second : cfg.default_policy;
}

resilience::CircuitBreaker& ServiceInstance::breaker_for(DepInfo& info) {
  if (info.breaker_index < 0) {
    const auto config = info.policy->circuit_breaker.value_or(
        resilience::CircuitBreakerConfig{});
    info.breaker_index = static_cast<int32_t>(breakers_.size());
    breakers_.emplace_back(config);
  }
  return breakers_[static_cast<size_t>(info.breaker_index)];
}

bool ServiceInstance::shared_pool_enabled() const {
  return service_->config().shared_client_pool > 0;
}

int ServiceInstance::shared_pool_in_flight() const {
  return sim_->instances().shared_in_flight(slot_);
}

void ServiceInstance::set_down(bool down) {
  sim_->instances().set_down(slot_, down);
}

bool ServiceInstance::down() const { return sim_->instances().down(slot_); }

uint64_t ServiceInstance::requests_handled() const {
  return sim_->instances().requests_handled(slot_);
}

int ServiceInstance::server_in_flight() const {
  return sim_->instances().server_in_flight(slot_);
}

size_t ServiceInstance::server_queue_peak() const {
  return sim_->instances().server_queue_peak(slot_);
}

void ServiceInstance::acquire_shared_slot(std::function<void()> fn) {
  const int cap = service_->config().shared_client_pool;
  int32_t& in_flight = sim_->instances().shared_in_flight(slot_);
  if (cap <= 0 || in_flight < cap) {
    ++in_flight;
    fn();
    return;
  }
  shared_waiters_.push_back(std::move(fn));
}

void ServiceInstance::release_shared_slot() {
  int32_t& in_flight = sim_->instances().shared_in_flight(slot_);
  if (in_flight > 0) --in_flight;
  if (!shared_waiters_.empty()) {
    auto fn = std::move(shared_waiters_.front());
    shared_waiters_.pop_front();
    ++in_flight;
    // Run on a fresh event so the releasing call's stack unwinds first.
    sim_->schedule_timer(kDurationZero, std::move(fn));
  }
}

ServiceInstance::DepInfo& ServiceInstance::dep_info(const std::string& dep) {
  const auto it = dep_index_.find(dep);
  if (it != dep_index_.end()) return dep_slots_[static_cast<size_t>(it->second)];
  DepInfo info;
  info.symbol = Symbol(dep);
  info.policy = &policy_for(dep);
  const int32_t index = static_cast<int32_t>(dep_slots_.size());
  dep_slots_.push_back(info);
  dep_index_.emplace(dep, index);
  return dep_slots_[static_cast<size_t>(index)];
}

ServiceInstance::DepInfo& ServiceInstance::dep_info(Symbol dep) {
  // Heterogeneous find on the interned text: no std::string materialised on
  // the per-inject path. Slot creation (the cold miss) reuses the string
  // form.
  const auto it = dep_index_.find(dep.view());
  if (it != dep_index_.end()) return dep_slots_[static_cast<size_t>(it->second)];
  return dep_info(dep.str());
}

ServiceInstance* ServiceInstance::pick_dep_instance(DepInfo& info) {
  if (info.service_index < 0) {
    // Resolve through the cached symbol — a flat-table index, not a string
    // lookup (and no symbol-table traffic: the symbol was interned when the
    // dep slot was built).
    info.service_index = sim_->service_index(info.symbol);
    if (info.service_index < 0) return nullptr;
  }
  return sim_->service_by_index(info.service_index)->next_instance();
}

bool ServiceInstance::pristine() const {
  for (const auto& breaker : breakers_) {
    if (breaker.state() != resilience::CircuitBreaker::State::kClosed ||
        breaker.consecutive_failures() != 0 ||
        breaker.half_open_successes() != 0 || breaker.times_opened() != 0) {
      return false;
    }
  }
  for (const auto& bulkhead : bulkheads_) {
    if (bulkhead->in_flight() != 0 || bulkhead->rejected() != 0) return false;
  }
  const InstanceTable& table = sim_->instances();
  return table.requests_handled(slot_) == 0 && !table.down(slot_) &&
         table.shared_in_flight(slot_) == 0 && shared_waiters_.empty() &&
         table.server_in_flight(slot_) == 0 && server_queue_.empty() &&
         table.server_queue_peak(slot_) == 0;
}

void ServiceInstance::reset(uint64_t seed) {
  agent_->reset(seed);
  // Breakers/bulkheads stay allocated (their config is derived from the
  // immutable policy) and return to the closed/idle state a cold build's
  // lazily created ones would start in.
  for (auto& breaker : breakers_) breaker.reset();
  for (auto& bulkhead : bulkheads_) bulkhead->reset();
  for (auto& info : dep_slots_) info.service_index = -1;
  sim_->instances().reset_slot(slot_);
  shared_waiters_.clear();
  server_queue_.clear();
}

InstanceSnapshot ServiceInstance::capture_snapshot() const {
  InstanceSnapshot snap;
  snap.breakers = breakers_;  // plain copyable values
  snap.bulkheads.reserve(bulkheads_.size());
  for (const auto& bulkhead : bulkheads_) {
    snap.bulkheads.push_back(bulkhead->capture());
  }
  snap.shared_waiters = shared_waiters_;
  snap.server_queue = server_queue_;
  snap.agent_records = agent_->snapshot_records();
  return snap;
}

void ServiceInstance::restore_snapshot(const InstanceSnapshot& snap,
                                       uint64_t seed) {
  // reset() reproduces the pristine post-construction state (the prefix
  // installed no rules, so the agent's rule engine is pristine both cold
  // and restored); the snapshot then overlays what the prefix mutated.
  agent_->reset(seed);
  // reset() emptied the observation buffer, so an empty snapshot buffer
  // (always so when the prefix ran with capture off) needs neither a copy
  // nor the agent's lock. The capture switch is the simulation's
  // (Simulation::restore).
  if (!snap.agent_records.empty()) agent_->restore_records(snap.agent_records);
  // Breakers/bulkheads created after the snapshot (lazily, by a later
  // sibling) reset to the pristine state a cold run's lazily created ones
  // would start in; the first-N restore in place. Never shrink: DepInfo
  // indices held by in-flight calls stay valid.
  for (size_t i = 0; i < breakers_.size(); ++i) {
    if (i < snap.breakers.size()) {
      breakers_[i] = snap.breakers[i];
    } else {
      breakers_[i].reset();
    }
  }
  for (size_t i = 0; i < bulkheads_.size(); ++i) {
    if (i < snap.bulkheads.size()) {
      bulkheads_[i]->restore(snap.bulkheads[i]);
    } else {
      bulkheads_[i]->reset();
    }
  }
  for (auto& info : dep_slots_) info.service_index = -1;
  shared_waiters_ = snap.shared_waiters;
  server_queue_ = snap.server_queue;
}

resilience::Bulkhead& ServiceInstance::bulkhead_for(DepInfo& info) {
  if (info.bulkhead_index < 0) {
    info.bulkhead_index = static_cast<int32_t>(bulkheads_.size());
    bulkheads_.push_back(std::make_unique<resilience::Bulkhead>(
        info.policy->bulkhead_max_concurrent));
  }
  return *bulkheads_[static_cast<size_t>(info.bulkhead_index)];
}

// ---------------------------------------------------------------- Service

SimService::SimService(Simulation* sim, ServiceConfig config)
    : config_(std::move(config)),
      symbol_(config_.name),
      ok_body_("ok:" + config_.name) {
  const int count = config_.instances < 1 ? 1 : config_.instances;
  instances_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    instances_.push_back(std::make_unique<ServiceInstance>(sim, this, i));
  }
}

}  // namespace gremlin::sim
