// Simulation snapshot/restore (see sim/snapshot.h for the theory).
#include "sim/snapshot.h"

#include "sim/simulation.h"

namespace gremlin::sim {

void Simulation::begin_snapshot_capture() {
  // Detach leftovers from any earlier capture: a stale participant's state
  // belongs to a different prefix and must not leak into this snapshot.
  while (participants_ != nullptr) participants_->unlink();
  snapshot_capture_ = true;
}

void Simulation::end_snapshot_capture() { snapshot_capture_ = false; }

void Simulation::attach_participant(SnapshotParticipant* p) {
  p->next_ = participants_;
  p->pprev_ = &participants_;
  if (participants_ != nullptr) participants_->pprev_ = &p->next_;
  participants_ = p;
}

Simulation::~Simulation() {
  // Participants may outlive the simulation (pinned by a SnapshotCache
  // entry); make sure none of them still points at our list head.
  while (participants_ != nullptr) participants_->unlink();
}

SimSnapshot Simulation::snapshot() {
  SimSnapshot snap;
  snap.seed = config_.seed;
  snap.now = now_;
  snap.events_processed = events_processed_;
  snap.rng = rng_;
  queue_.save_events(&snap.queue);
  snap.recording = recording_;
  snap.table = instance_table_;
  snap.services.reserve(services_.size());
  for (const auto& service : services_) {
    snap.services.push_back(service->capture_snapshot());
  }
  for (SnapshotParticipant* p = participants_; p != nullptr; p = p->next_) {
    snap.participants.push_back(
        ParticipantState{p->snapshot_pin(), p, p->snapshot_state()});
  }
  return snap;
}

void Simulation::restore(const SimSnapshot& snap) {
  queue_.restore_events(snap.queue);
  stop_requested_ = false;
  now_ = snap.now;
  events_processed_ = snap.events_processed;
  config_.seed = snap.seed;
  rng_ = snap.rng;
  // The store starts a restored run empty, as a cold run starts it: a
  // prefix run never appends to the store (the collector only drains at the
  // end of a run).
  log_store_.clear();
  instance_table_.restore_from(snap.table);
  for (size_t i = 0; i < services_.size(); ++i) {
    if (i < snap.services.size()) {
      services_[i]->restore_snapshot(snap.services[i], snap.seed);
    } else {
      // Service added after the snapshot (a later sibling's lazily created
      // edge client): reset to the pristine state it would cold-start in.
      services_[i]->reset(snap.seed);
    }
  }
  // Every agent follows the simulation-wide capture switch, services added
  // after the snapshot included.
  set_recording(snap.recording);
  // Reload the mutable fields of every pinned request-path object: saved
  // event actions reference these same objects across every sibling.
  for (const ParticipantState& ps : snap.participants) {
    ps.participant->snapshot_load(ps.state);
  }
}

}  // namespace gremlin::sim
