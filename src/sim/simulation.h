// Simulation: the deterministic discrete-event "deployment" that stands in
// for the paper's containerized testbed.
//
// Owns the virtual clock, the event queue, the latency model, every service
// (with its instances and sidecar agents), the physical Deployment view the
// control plane programs, and the central LogStore assertions query.
// A given (topology, workload, recipe, seed) tuple always produces the same
// logs and latencies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/intern.h"
#include "common/rng.h"
#include "logstore/store.h"
#include "sim/event_queue.h"
#include "sim/instance_table.h"
#include "sim/network.h"
#include "sim/service.h"
#include "topology/deployment.h"
#include "topology/graph.h"

namespace gremlin::sim {

struct SimulationConfig {
  uint64_t seed = 42;
  Duration default_network_latency = usec(500);

  // Routes one-shot events through the queue's hierarchical timer wheel.
  // Pop order (and therefore every fingerprint) is byte-identical either
  // way; disabling exists for heap-only baseline benchmarks and the
  // wheel/heap differential tests.
  bool use_timer_wheel = true;

  // Worker-context resources (campaign::ExecutionContext): when non-null
  // they must outlive the Simulation and may only be shared among
  // simulations driven by the same thread (a worker's warm worlds run one
  // at a time). Null means the simulation owns private ones.
  EventPool* event_pool = nullptr;
  MemoryPool* memory = nullptr;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config = {});

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- clock & scheduling ---
  TimePoint now() const { return now_; }
  void schedule(Duration delay, EventQueue::Action action);
  void schedule_at(TimePoint at, EventQueue::Action action);
  // Like schedule(), but marks the event as a fixed-delay timer so the
  // queue can keep it on an O(1) FIFO lane (see EventQueue). Identical
  // firing order, cheaper for long-lived timers like call timeouts. The
  // handle cancels the timer (cancel_timer); callers that never cancel
  // ignore it.
  EventQueue::TimerHandle schedule_timer(Duration delay,
                                         EventQueue::Action action);
  // Drops a pending timer's action; it still pops, as a no-op, at its
  // original time (see EventQueue::cancel_timer). Stale handles are no-ops.
  void cancel_timer(const EventQueue::TimerHandle& handle) {
    queue_.cancel_timer(handle);
  }

  // Runs events until the queue drains; returns the number processed.
  size_t run();
  // Runs events with timestamps <= `deadline`; the clock advances to
  // `deadline` even if the queue drains earlier.
  size_t run_until(TimePoint deadline);

  // --- early termination (online assertion checking) ---
  // Asks the run loop to stop before the next event. Callable from inside
  // an event action (the online checker requests a stop the moment every
  // attached check holds a final verdict). Sticky until clear_stop() or
  // cancel_pending().
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  // Drops every pending event and clears the stop flag, returning the
  // number cancelled. Restores the sim to a quiescent, reusable state after
  // an early-terminated run; the event pool's free list reabsorbs every
  // cancelled slot (tests/event_pool_test.cc).
  size_t cancel_pending();

  bool has_pending_events() const { return !queue_.empty(); }
  // Timestamp of the earliest pending event; undefined when none pending.
  TimePoint next_event_time() const { return queue_.next_time(); }
  // Pool introspection for tests (leak checks after early termination).
  const EventQueue& event_queue() const { return queue_; }

  Rng& rng() { return rng_; }
  // The pool backing the data plane's transient objects (outbound calls,
  // request contexts, queue buffers). Worker-shared when the config
  // supplied one, private otherwise; only touched from the driving thread.
  MemoryPool& memory() { return *memory_; }
  SimNetwork& network() { return network_; }
  logstore::LogStore& log_store() { return log_store_; }
  topology::Deployment& deployment() { return deployment_; }
  const SimulationConfig& config() const { return config_; }

  // Deep reset to the state of a freshly constructed Simulation with
  // `seed`, without destroying the deployment: virtual clock to zero, event
  // queue cleared (pool retained), RNG reseeded, LogStore cleared (interned
  // symbols and index capacity retained), every service's mutable state
  // reset (round-robin cursors, breaker/bulkhead/queue state, agent rule
  // engines + RNG streams). Services inject() created lazily (edge clients)
  // are reset in place and reused by the next experiment. The warm-world
  // contract: a run after reset(seed) is byte-identical to the same run on
  // a cold Simulation built with `seed`.
  void reset(uint64_t seed);

  // Flips observation capture on every sidecar agent (current and lazily
  // added later). Off means the data plane never builds or buffers
  // LogRecords; fault injection is untouched. The runner uses this when no
  // assertion of the run reads records. reset() restores capture to on;
  // restore() takes it from the snapshot.
  void set_recording(bool on);

  // --- topology ---
  // Creates a service (and its instances + sidecar agents); the service is
  // registered in the Deployment so the orchestrator can program it.
  SimService* add_service(ServiceConfig config);
  SimService* find_service(const std::string& name);
  // Symbol-keyed lookup: a flat-table index, no string hashing. The string
  // overloads resolve through the symbol table without interning unknown
  // names; the const char* form disambiguates string literals (which
  // convert equally well to std::string and Symbol).
  SimService* find_service(Symbol name);
  SimService* find_service(const char* name) {
    return find_service(std::string_view(name));
  }

  // Index-addressed service resolution for the per-hop path: dep caches
  // store the dense service index (resolved once via service_index) and
  // every later hop costs two array loads, no map or symbol-table traffic.
  // Indices are stable — services are never removed from a Simulation.
  int32_t service_index(Symbol name) const {
    const uint32_t id = name.id();
    return id < by_symbol_.size() ? by_symbol_[id] : -1;
  }
  SimService* service_by_index(int32_t index) {
    return services_[static_cast<size_t>(index)].get();
  }
  size_t service_count() const { return services_.size(); }

  // SoA hot scalars for every deployed instance (see sim/instance_table.h);
  // instances address their row by the dense slot assigned at deployment.
  InstanceTable& instances() { return instance_table_; }

  // Instantiates one single-instance service per graph node. `make` may
  // customize the config; its `name` field is overwritten with the node
  // name and `dependencies` with the node's callees.
  void add_services_from_graph(
      const topology::AppGraph& graph,
      const std::function<ServiceConfig(const std::string&)>& make);

  // Round-robin instance selection for calls targeting `service`;
  // nullptr when the service does not exist (caller observes a reset).
  ServiceInstance* pick_instance(const std::string& service);
  ServiceInstance* pick_instance(Symbol service);
  ServiceInstance* pick_instance(const char* service) {
    return pick_instance_view(std::string_view(service));
  }

  // --- workload entry ---
  // Sends a request from edge client `client` (a registered service; created
  // on first use with a naive policy if missing) to `target`. The call flows
  // through the client's sidecar, so edge behaviour is logged and fault
  // rules apply to it (Section 6, test input generation).
  void inject(const std::string& client, const std::string& target,
              SimRequest request, ResponseCallback cb);
  // Pre-interned form for load generators that inject many requests along
  // the same edge (skips the per-request symbol-table lookup).
  void inject(Symbol client, Symbol target, SimRequest request,
              ResponseCallback cb);
  void inject(const char* client, const char* target, SimRequest request,
              ResponseCallback cb) {
    inject(Symbol(client), Symbol(target), std::move(request),
           std::move(cb));
  }

  // --- infra faults ---
  // Schedules an instance outage: every instance of `service` goes down
  // (refusing new work with connection resets) at virtual time `after` and
  // comes back up at `after + downtime`. Zero downtime means the service
  // stays down for the rest of the run. The outage is ordinary scheduled
  // events, so it participates in determinism, early termination, and
  // warm-world reset like any other simulated behaviour.
  VoidResult schedule_service_outage(const std::string& service,
                                     Duration after, Duration downtime);

  // Number of simulation events processed so far.
  uint64_t events_processed() const { return events_processed_; }

  // --- snapshot / restore (sim/snapshot.h) ---
  // Captures the complete mutable world state; restore(snap) rebuilds it so
  // a restored run is byte-identical to a cold run reaching the same
  // instant. Transient request-path objects (outbound calls, request
  // contexts) constructed while snapshot_capture() is on register
  // themselves as participants; begin_snapshot_capture() detaches leftovers
  // from any earlier capture first.
  void begin_snapshot_capture();
  void end_snapshot_capture();
  bool snapshot_capture() const { return snapshot_capture_; }
  void attach_participant(SnapshotParticipant* p);
  SimSnapshot snapshot();
  void restore(const SimSnapshot& snap);

  ~Simulation();

 private:
  SimService* find_service(std::string_view name);
  ServiceInstance* pick_instance_view(std::string_view service);

  SimulationConfig config_;
  TimePoint now_{};
  std::unique_ptr<MemoryPool> own_memory_;  // when no context pool supplied
  MemoryPool* memory_;
  EventQueue queue_;
  Rng rng_;
  SimNetwork network_;
  logstore::LogStore log_store_;
  topology::Deployment deployment_;
  // Services in insertion order (owning), plus a Symbol-id-indexed flat
  // table resolving to the dense service index for the per-message routing
  // path. The table is sized to the largest service-name symbol id this
  // simulation hosts; symbol ids are process-global but the vocabulary is
  // bounded (service names), so the table stays small.
  std::vector<std::unique_ptr<SimService>> services_;
  std::vector<int32_t> by_symbol_;  // symbol id → services_ index, -1 absent
  InstanceTable instance_table_;
  bool recording_ = true;
  uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  // Intrusive list of live SnapshotParticipants (see sim/snapshot.h);
  // populated only while snapshot_capture_ is on.
  SnapshotParticipant* participants_ = nullptr;
  bool snapshot_capture_ = false;
};

}  // namespace gremlin::sim
