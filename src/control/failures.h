// FailureSpec: the high-level outage vocabulary of Section 5.
//
// A spec names a scenario (Disconnect, Crash, Hang, Overload, FakeSuccess,
// Partition — or a raw Abort/Delay/Modify primitive) and its parameters.
// The Recipe Translator expands a spec against the logical application graph
// into the concrete per-edge fault rules of Table 2:
//
//   Disconnect(A,B)  → Abort(A→B, 503)
//   Crash(S)         → Abort(d→S, TCP reset) for every dependent d of S
//   Hang(S)          → Delay(d→S, 1h) for every dependent d
//   Overload(S)      → Abort(d→S, 503, p=.25) + Delay(d→S, 100ms) per
//                      dependent (conditional probabilities produce the
//                      paper's 25/75 split exactly)
//   FakeSuccess(S)   → Modify(d→S, key→badkey) on responses per dependent
//   Partition(G)     → Abort(TCP reset) on every edge crossing the cut(G)
//
// Infra-level scenario faults lower onto the same primitives plus activation
// windows on the virtual clock (and, for InstanceCrash, a simulator hook
// that marks the service's instances down for the outage — see
// control/recipe):
//
//   InstanceCrash(S, after, down) → Crash rules windowed [after, after+down];
//                                   the service auto-restarts when the
//                                   window closes
//   RollingPartition(G, stagger)  → each member of G isolated in turn:
//                                   reset rules on cut({member}) windowed
//                                   [after + i*stagger, +window]
//   SlowNode(S)                   → distribution-valued Delay(d→S) per
//                                   dependent (default exponential)
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/duration.h"
#include "faults/rule.h"
#include "topology/graph.h"

namespace gremlin::control {

struct FailureSpec {
  enum class Kind {
    kAbort,        // raw primitive on edge a→b
    kDelay,        // raw primitive on edge a→b
    kModify,       // raw primitive on edge a→b
    kDisconnect,   // a→b returns an error code
    kCrash,        // service b appears crashed to all dependents
    kHang,         // service b hangs (very long delays)
    kOverload,     // service b overloaded: mix of errors and delays
    kFakeSuccess,  // service b returns tampered payloads with status 200
    kPartition,    // network partition along cut(group)
    kInstanceCrash,     // service b down for [after, after+window], restarts
    kRollingPartition,  // group members isolated one after another
    kSlowNode,          // service b degraded: distribution-valued delays
  };

  Kind kind = Kind::kAbort;
  std::string a;  // src for edge primitives / disconnect
  std::string b;  // dst / the failing service
  std::set<std::string> group;  // partition only

  std::string pattern = "test-*";  // request-ID flow selector
  // Fire probability of every lowered rule. Overload ignores it: its
  // abort/delay split is the scenario (overload_abort_fraction).
  double probability = 1.0;
  int error = 503;                  // abort code (kTcpReset for resets)
  Duration delay = msec(100);       // delay / hang interval
  double overload_abort_fraction = 0.25;
  Duration overload_delay = msec(100);
  std::string body_pattern;         // modify / fake-success
  std::string replace_bytes;        // modify / fake-success
  logstore::MessageKind on = logstore::MessageKind::kRequest;
  uint64_t max_matches = faults::kUnlimitedMatches;

  // Activation window (virtual-clock offsets from experiment start),
  // applied to every lowered rule. window == 0 means unbounded; for
  // kInstanceCrash a zero window means the instance never restarts.
  Duration after{};
  Duration window{};
  // kRollingPartition: offset between consecutive members' windows.
  Duration stagger{};

  // Delay distribution for kDelay / kSlowNode lowered delay rules.
  // kFixed draws nothing and uses `delay`.
  faults::DelayDistribution delay_distribution =
      faults::DelayDistribution::kFixed;
  Duration delay_min{};
  Duration delay_max{};
  Duration delay_mean{};
  std::vector<Duration> delay_values;

  // Convenience factories.
  static FailureSpec abort_edge(std::string src, std::string dst,
                                int error = 503,
                                std::string pattern = "test-*");
  static FailureSpec delay_edge(std::string src, std::string dst,
                                Duration interval,
                                std::string pattern = "test-*");
  static FailureSpec modify_edge(std::string src, std::string dst,
                                 std::string body_pattern,
                                 std::string replace_bytes,
                                 std::string pattern = "test-*");
  static FailureSpec disconnect(std::string src, std::string dst,
                                int error = 503);
  static FailureSpec crash(std::string service);
  static FailureSpec hang(std::string service, Duration interval = hours(1));
  static FailureSpec overload(std::string service,
                              Duration delay = msec(100),
                              double abort_fraction = 0.25);
  static FailureSpec fake_success(std::string service,
                                  std::string body_pattern,
                                  std::string replace_bytes);
  static FailureSpec partition(std::set<std::string> group);
  static FailureSpec instance_crash(std::string service, Duration after,
                                    Duration downtime);
  static FailureSpec rolling_partition(std::set<std::string> group,
                                       Duration after, Duration window,
                                       Duration stagger);
  static FailureSpec slow_node(std::string service, Duration mean,
                               Duration after = kDurationZero,
                               Duration window = kDurationZero);

  const char* kind_name() const;

  // Byte-exact digest of every field: equal fingerprints mean translation
  // produces identical rules against a given graph and sequence position.
  // The fault-rule compilation cache keys on this (sweeps repeat the same
  // spec across seed replications). Doubles are serialized by bit pattern,
  // not decimal formatting, so near-equal values never collide.
  std::string fingerprint() const;

  // Appends the digest to `out`. The rule cache keys every per-experiment
  // lookup through a reused scratch string, so the append form keeps the
  // warm path free of string allocations.
  void fingerprint_into(std::string* out) const;
};

// Expands a spec into fault rules using the application graph. Fails when
// the spec references services absent from the graph.
//
// Rule IDs carry a sequence number drawn from `sequence` (incremented per
// rule) so repeated applications stay distinguishable; when null, a fresh
// sequence starting at 0 is used. Either way IDs depend only on the inputs
// — never on global state — so translations are reproducible and safe to
// run from parallel campaign workers.
Result<std::vector<faults::FaultRule>> translate_failure(
    const topology::AppGraph& graph, const FailureSpec& spec,
    uint64_t* sequence = nullptr);

}  // namespace gremlin::control
