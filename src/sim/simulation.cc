#include "sim/simulation.h"

#include <cassert>

namespace gremlin::sim {

Simulation::Simulation(SimulationConfig config)
    : config_(config),
      own_memory_(config.memory == nullptr ? std::make_unique<MemoryPool>()
                                           : nullptr),
      memory_(config.memory != nullptr ? config.memory : own_memory_.get()),
      queue_(config.event_pool),
      rng_(config.seed),
      network_(config.default_network_latency) {
  queue_.set_wheel_enabled(config.use_timer_wheel);
}

void Simulation::schedule(Duration delay, EventQueue::Action action) {
  schedule_at(now_ + (delay < kDurationZero ? kDurationZero : delay),
              std::move(action));
}

void Simulation::schedule_at(TimePoint at, EventQueue::Action action) {
  queue_.schedule_at(at < now_ ? now_ : at, std::move(action));
}

EventQueue::TimerHandle Simulation::schedule_timer(Duration delay,
                                                  EventQueue::Action action) {
  if (delay < kDurationZero) delay = kDurationZero;
  // now_ is monotone, so same-delay timers are born in fire-time order —
  // exactly the lane invariant schedule_timer needs.
  return queue_.schedule_timer(now_ + delay, delay, std::move(action));
}

size_t Simulation::run() {
  size_t processed = 0;
  while (!stop_requested_ && !queue_.empty()) {
    // The queue writes now_ from the popped entry before running its
    // action: one best-entry scan per event, not a peek plus a pop.
    queue_.pop_and_run(&now_);
    ++processed;
    ++events_processed_;
  }
  return processed;
}

size_t Simulation::run_until(TimePoint deadline) {
  size_t processed = 0;
  while (!stop_requested_ && !queue_.empty() &&
         queue_.next_time() <= deadline) {
    queue_.pop_and_run(&now_);
    ++processed;
    ++events_processed_;
  }
  // A stop request abandons the run mid-flight; only a run that exhausted
  // its window advances the clock to the deadline.
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return processed;
}

size_t Simulation::cancel_pending() {
  const size_t cancelled = queue_.size();
  queue_.clear();
  stop_requested_ = false;
  return cancelled;
}

SimService* Simulation::add_service(ServiceConfig config) {
  assert(!config.name.empty() && "service requires a name");
  auto service = std::make_unique<SimService>(this, std::move(config));
  SimService* raw = service.get();
  const std::string& name = raw->name();
  const uint32_t id = raw->symbol().id();
  if (by_symbol_.size() <= id) by_symbol_.resize(id + 1, -1);
  assert(by_symbol_[id] < 0 && "duplicate service name");
  for (size_t i = 0; i < raw->instance_count(); ++i) {
    raw->instance(i).agent()->set_recording(recording_);
    deployment_.add_instance(name, raw->instance(i).agent());
  }
  by_symbol_[id] = static_cast<int32_t>(services_.size());
  services_.push_back(std::move(service));
  return raw;
}

SimService* Simulation::find_service(const std::string& name) {
  return find_service(std::string_view(name));
}

SimService* Simulation::find_service(std::string_view name) {
  // find_symbol() (not Symbol construction): lookups of unknown names must
  // not grow the symbol table, and a campaign worker must resolve through
  // its own shard so ids match the ones its services registered with.
  const auto sym = find_symbol(name);
  return sym ? find_service(*sym) : nullptr;
}

SimService* Simulation::find_service(Symbol name) {
  const int32_t index = service_index(name);
  return index < 0 ? nullptr : services_[static_cast<size_t>(index)].get();
}

void Simulation::reset(uint64_t seed) {
  queue_.clear();
  stop_requested_ = false;
  now_ = TimePoint{};
  events_processed_ = 0;
  config_.seed = seed;
  rng_ = Rng(seed);
  log_store_.clear();
  // Services added after the baseline (inject()'s lazily created edge
  // clients) are kept and reset in place rather than dropped. A retained
  // idle client is invisible to results — it schedules no events, its agent
  // records nothing after reset, and fingerprints carry no symbol ids — so
  // warm runs stay byte-identical to cold ones (the warm-cold differential
  // in CI gates this), while re-creating the client per experiment cost
  // ~11 heap allocations: the SimService, its instance vector, the agent,
  // and the deployment + dependency-cache map nodes.
  for (auto& service : services_) service->reset(seed);
  recording_ = true;  // SimAgent::reset already restored the agents
}

void Simulation::set_recording(bool on) {
  recording_ = on;
  for (auto& service : services_) {
    for (size_t i = 0; i < service->instance_count(); ++i) {
      service->instance(i).agent()->set_recording(on);
    }
  }
}

VoidResult Simulation::schedule_service_outage(const std::string& service,
                                               Duration after,
                                               Duration downtime) {
  SimService* svc = find_service(service);
  if (svc == nullptr) {
    return Error::not_found("service '" + service +
                            "' is not in the simulation");
  }
  const auto set_all = [svc](bool down) {
    for (size_t i = 0; i < svc->instance_count(); ++i) {
      svc->instance(i).set_down(down);
    }
  };
  schedule(after, [set_all] { set_all(true); });
  if (downtime > kDurationZero) {
    schedule(after + downtime, [set_all] { set_all(false); });
  }
  return VoidResult::success();
}

void Simulation::add_services_from_graph(
    const topology::AppGraph& graph,
    const std::function<ServiceConfig(const std::string&)>& make) {
  for (const auto& name : graph.services()) {
    ServiceConfig cfg = make ? make(name) : ServiceConfig{};
    cfg.name = name;
    cfg.dependencies = graph.dependencies(name);
    add_service(std::move(cfg));
  }
}

ServiceInstance* Simulation::pick_instance(const std::string& service) {
  return pick_instance_view(service);
}

ServiceInstance* Simulation::pick_instance_view(std::string_view service) {
  SimService* svc = find_service(service);
  if (svc == nullptr) return nullptr;
  return svc->next_instance();
}

ServiceInstance* Simulation::pick_instance(Symbol service) {
  SimService* svc = find_service(service);
  if (svc == nullptr) return nullptr;
  return svc->next_instance();
}

void Simulation::inject(const std::string& client, const std::string& target,
                        SimRequest request, ResponseCallback cb) {
  // Edge clients and load targets are service names — a bounded vocabulary,
  // safe to intern.
  inject(Symbol(client), Symbol(target), std::move(request), std::move(cb));
}

void Simulation::inject(Symbol client, Symbol target, SimRequest request,
                        ResponseCallback cb) {
  SimService* svc = find_service(client);
  if (svc == nullptr) {
    ServiceConfig cfg;
    cfg.name = client.str();
    cfg.instances = 1;
    cfg.processing_time = kDurationZero;
    svc = add_service(std::move(cfg));
  }
  svc->instance(0).call_dependency(target, std::move(request),
                                   std::move(cb));
}

}  // namespace gremlin::sim
