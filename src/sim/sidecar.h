// SimAgent: the simulator's sidecar Gremlin agent.
//
// One agent is attached to every service *instance* (the sidecar model of
// Section 6: a service proxy handling the instance's outbound calls). It
// embeds the same faults::RuleEngine the real TCP proxy uses, buffers its
// observations locally, and exposes the topology::AgentHandle control
// interface so the Failure Orchestrator can program it exactly like a
// remote agent.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "faults/rule_engine.h"
#include "logstore/record.h"
#include "logstore/store.h"
#include "topology/deployment.h"

namespace gremlin::sim {

class SimAgent : public topology::AgentHandle {
 public:
  SimAgent(std::string service, std::string instance_id, uint64_t seed);

  // --- AgentHandle (control plane interface) ---
  std::string instance_id() const override { return instance_id_; }
  VoidResult install_rules(
      const std::vector<faults::FaultRule>& rules) override;
  VoidResult install_rule(const faults::FaultRule& rule) override;
  VoidResult clear_rules() override;
  VoidResult remove_rules(const std::vector<std::string>& ids) override;
  Result<logstore::RecordList> fetch_records() override;
  VoidResult clear_records() override;
  // Moves the buffer out instead of copying (collector hot path).
  Result<logstore::RecordList> drain_records() override;

  // --- data plane (used by the request path) ---
  faults::RuleEngine& engine() { return engine_; }
  void log(logstore::LogRecord record);
  const std::string& service() const { return service_; }
  // Interned names, resolved once at construction for the logging hot path.
  Symbol service_symbol() const { return service_sym_; }
  Symbol instance_symbol() const { return instance_sym_; }
  size_t buffered_records() const;

  // Observation capture switch. When no consumer will ever read the records
  // of a run (load-only assertions with the log store bypassed), the runner
  // turns capture off so the data plane skips building and buffering
  // LogRecords entirely. Fault injection is unaffected — rules still
  // evaluate; only the observation side is suppressed. Restored to on by
  // reset() so a warm world always starts a run in the cold-start state.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  // Restores the pristine post-construction state for `seed`: rules gone,
  // observation buffer empty, rule-engine RNG reseeded exactly as a fresh
  // agent's would be (warm-world reuse).
  void reset(uint64_t seed);

  // Snapshot support (sim/snapshot.h). A prefix run installs no rules, so
  // reset(seed) + restore_records() reproduces the agent exactly: the rule
  // engine is pristine both cold and restored, and only the observation
  // buffer and capture switch carry state; the simulation restores the
  // switch.
  logstore::RecordList snapshot_records() const {
    std::lock_guard lock(mu_);
    return records_;
  }
  // Copies into the live buffer, reusing its capacity.
  void restore_records(const logstore::RecordList& records) {
    std::lock_guard lock(mu_);
    records_.assign(records.begin(), records.end());
  }

 private:
  const std::string service_;
  const std::string instance_id_;
  const Symbol service_sym_;
  const Symbol instance_sym_;
  faults::RuleEngine engine_;
  bool recording_ = true;
  mutable std::mutex mu_;
  logstore::RecordList records_;
};

}  // namespace gremlin::sim
