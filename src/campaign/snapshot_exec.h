// SnapshotCache: fault-free prefix snapshots for campaign execution.
//
// A windowed sweep runs N experiments that differ only in which fault rules
// activate (all at `after > 0`) — so every one of them deterministically
// replays the same fault-free prefix before its window opens. Pre-window
// rule matching is side-effect-free (the `now < after` test precedes every
// counter and probability draw), which makes the world at `after - 1 tick`
// byte-identical whether the rules are armed or absent. The cache exploits
// that: simulate the shared prefix once with NO rules installed, snapshot
// the world (sim/snapshot.h), and start each sibling experiment from the
// restore point — skipping the prefix events entirely.
//
// A snapshot holds only what a restored run reads. An experiment that
// neither preserves the log nor attaches a record-consuming check (a
// load-only panel such as MaxUserFailures) suppresses observation capture
// for its whole run, so its prefix runs with capture off as well: the
// snapshot carries no sidecar records and a restore copies none. Whether
// the prefix captured is part of the cache key, so load-only and
// record-checking siblings of one sweep each get their own entry.
//
// One wrinkle is load injection: run_load's closures capture their result
// object, which would tie the snapshot to one experiment. The prefix is
// instead driven by a control::LoadDriver held at a stable address by the
// cache entry; its in-flight closures write through a rebindable result
// pointer, so each sibling binds its own LoadResult (seeded with a copy of
// the prefix's partial result) before resuming.
//
// Early exit needs one more piece: a cold early-exit run can stop *during*
// the prefix (a purely load-based check deciding on an early response). The
// entry records the prefix's per-response failed flags; with early exit on,
// the sibling replays that tape into its fresh check machines before
// restoring — if every check decides mid-tape, the cold run would have
// stopped inside the prefix, and the sibling falls back to the warm-world
// path (return nullopt) rather than reproduce a partial prefix. With early
// exit off the tape is not replayed: nothing stops the prefix, and verdicts
// finalize from the records and the LoadResult.
//
// Eligibility: declarative experiments on reusable specs whose failure
// specs all have `after >= 1 tick` (and none is kInstanceCrash, which
// schedules outage events at apply time — before the prefix would be
// sharable), on worlds where every service runs the default handler. A
// snapshot copies pending event closures by value and reloads only
// SnapshotParticipants, so state a custom handler's closures share (say, a
// per-request fan-out counter behind a shared_ptr) would leak from one
// restored sibling into the next; the engine cannot see what such closures
// share, so any custom ServiceConfig::handler opts the whole world out
// (checked once per world). Everything else returns nullopt and degrades
// gracefully to the warm-world path.
//
// The experiment itself runs through the ExperimentBody that
// CampaignRunner::run_prepared also runs (campaign/runner.h): check
// machines, observers, drain, collect and verdicts are shared code. This
// path keeps only the tape replay, the restore, installing the faults on
// the restored world, and driving the load through the entry's driver.
// Contract: for eligible experiments the returned result is byte-identical
// — fingerprint() and verdict_fingerprint() both — to run_prepared on a
// freshly reset world (tests/snapshot_test.cc and tests/differential_test.cc
// enforce this).
//
// Not thread-safe; each warm world owns one cache.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "control/load_driver.h"
#include "control/rule_cache.h"
#include "sim/snapshot.h"

namespace gremlin::campaign {

class SnapshotCache {
 public:
  // Runs `experiment` from a prefix snapshot when eligible; nullopt means
  // "not eligible / not reproducible from a snapshot — run it on the
  // normal warm path" (the sim may have been dirtied; reset before reuse).
  std::optional<ExperimentResult> run(const Experiment& experiment,
                                      sim::Simulation* sim,
                                      const topology::AppGraph* graph,
                                      control::RuleCache* rule_cache,
                                      const ExecOptions& exec);

  // Cache effectiveness counters (campaign reporting). A miss built a
  // prefix snapshot; a hit restored one instead of re-simulating.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  // Prefix events hits did not re-simulate, summed over all hits.
  uint64_t prefix_events_skipped() const { return prefix_events_skipped_; }

 private:
  struct Entry {
    std::string key;        // seed + load shape + client + target + capture
    TimePoint t_snap{};     // snapshot instant (min activation - 1 tick)
    // Stable-address injector: saved event actions capture its `this`.
    std::unique_ptr<control::LoadDriver> driver;
    control::LoadResult prefix_result;  // partial result at t_snap
    std::vector<bool> response_tape;    // per-response failed flags
    uint64_t events_at_snapshot = 0;    // prefix event count (the savings)
    sim::SimSnapshot snap;
  };

  // A handful of entries covers a sweep's load shapes; oldest evicted.
  static constexpr size_t kMaxEntries = 4;

  // unique_ptr: entries must not move — drivers are address-pinned.
  std::vector<std::unique_ptr<Entry>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t prefix_events_skipped_ = 0;
  // Whether any service of the world has a custom handler; computed on the
  // first run (the cache belongs to one world).
  std::optional<bool> custom_handlers_;
};

}  // namespace gremlin::campaign
