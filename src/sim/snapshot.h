// SimSnapshot: a value capturing the complete mutable state of a running
// Simulation, and the participant registry that extends the capture to the
// transient request-path objects (outbound calls, request contexts) pinned
// by pending event closures.
//
// A campaign sweep over activation windows replays the same fault-free
// prefix for every experiment: rules with `after > 0` are provably inert
// before their window (pre-window matching touches no counters and no RNG),
// so the world at `after - 1 tick` is byte-identical whether the rules are
// armed or absent. Simulation::snapshot() freezes that world — virtual
// clock, every pending event (EventQueue::SavedQueue: heap and wheel events
// as (time, seq, action), each timer lane as it stands, with its delay and
// its FIFO of (time, seq) keys, where a cancelled timer's tombstone carries
// no action), the RNG stream, the SoA instance table, per-instance
// breaker/bulkhead/queue state, the observation capture switch, sidecar
// record buffers (empty when the prefix ran with capture off) and
// rule-engine streams (pristine by construction: no rules are installed
// during a prefix), and the packed mutable fields of every live call
// object. Simulation::restore() rebuilds it so a restored run is
// byte-identical — fingerprint() and verdict_fingerprint() both — to a cold
// run reaching the same instant.
//
// Event actions are copied by value (EventPool::Action is a copyable
// InlineFunction); copies share the shared_ptr-held objects the originals
// captured, which is why those objects register as SnapshotParticipants
// during capture: each restore re-loads their mutable fields, so a second
// sibling starts from the same object states the first one did.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/duration.h"
#include "common/rng.h"
#include "logstore/store.h"
#include "resilience/bulkhead.h"
#include "resilience/circuit_breaker.h"
#include "sim/event_queue.h"
#include "sim/instance_table.h"

namespace gremlin::sim {

class Simulation;

// Mixin for request-path objects whose mutable state a snapshot must cover.
// Objects link themselves onto the owning Simulation's intrusive list when
// constructed during a capture window (Simulation::snapshot_capture());
// snapshot() walks the list, pinning each object (so it outlives the
// snapshot) and recording its state as one packed word; restore() loads the
// word back. The list is doubly linked through a pointer-to-pointer, so
// unlinking from the destructor is O(1) and needs no list head.
class SnapshotParticipant {
 public:
  virtual ~SnapshotParticipant() { unlink(); }

  SnapshotParticipant(const SnapshotParticipant&) = delete;
  SnapshotParticipant& operator=(const SnapshotParticipant&) = delete;

 protected:
  SnapshotParticipant() = default;

 private:
  friend class Simulation;

  // A shared_ptr keeping the object alive for the snapshot's lifetime.
  virtual std::shared_ptr<void> snapshot_pin() = 0;
  // Mutable fields packed into one word; layout is private to the subclass.
  virtual uint64_t snapshot_state() const = 0;
  virtual void snapshot_load(uint64_t state) = 0;

  void unlink() {
    if (pprev_ == nullptr) return;
    *pprev_ = next_;
    if (next_ != nullptr) next_->pprev_ = pprev_;
    pprev_ = nullptr;
    next_ = nullptr;
  }

  SnapshotParticipant** pprev_ = nullptr;
  SnapshotParticipant* next_ = nullptr;
};

// Per-instance mutable state (the cold fields living on ServiceInstance;
// the hot SoA scalars ride in SimSnapshot::table).
struct InstanceSnapshot {
  std::vector<resilience::CircuitBreaker> breakers;
  std::vector<resilience::Bulkhead::State> bulkheads;
  std::deque<std::function<void()>> shared_waiters;
  std::deque<std::function<void()>> server_queue;
  logstore::RecordList agent_records;
};

struct ServiceSnapshot {
  size_t rr_next = 0;  // round-robin instance cursor
  std::vector<InstanceSnapshot> instances;
};

struct ParticipantState {
  std::shared_ptr<void> pin;  // keeps `participant` alive
  SnapshotParticipant* participant = nullptr;
  uint64_t state = 0;
};

struct SimSnapshot {
  uint64_t seed = 0;
  TimePoint now{};
  uint64_t events_processed = 0;
  Rng rng{0};

  // Every pending event and the insertion sequence (see
  // EventQueue::restore_events for where each one goes back).
  EventQueue::SavedQueue queue;
  // Simulation-wide capture switch; off when the prefix ran load-only.
  bool recording = true;

  InstanceTable table;  // SoA hot scalars, copied wholesale
  std::vector<ServiceSnapshot> services;
  std::vector<ParticipantState> participants;
};

}  // namespace gremlin::sim
