#include "campaign/snapshot_exec.h"

#include <functional>
#include <utility>

#include "control/online.h"
#include "control/recipe.h"

namespace gremlin::campaign {

namespace {

// One tick of the virtual clock (TimePoint resolution): the snapshot sits
// at the last instant provably untouched by any rule. Events AT the
// activation time must already see the rules installed, so the prefix runs
// `run_until(t_act - kTick)`.
constexpr Duration kTick = Duration(1);

void append_load_key(std::string* key, const control::LoadOptions& load) {
  *key += std::to_string(load.count);
  *key += '|';
  *key += std::to_string(load.gap.count());
  *key += '|';
  *key += load.id_prefix;
  *key += '|';
  *key += load.uri;
  *key += '|';
  *key += load.method;
  *key += '|';
  *key += load.body;
  *key += '|';
  *key += load.closed_loop ? '1' : '0';
  *key += '|';
  *key += std::to_string(load.horizon.count());
  *key += '|';
}

}  // namespace

std::optional<ExperimentResult> SnapshotCache::run(
    const Experiment& experiment, sim::Simulation* sim,
    const topology::AppGraph* graph, control::RuleCache* rule_cache,
    const ExecOptions& exec) {
  // --- eligibility --------------------------------------------------------
  if (experiment.custom || experiment.failures.empty()) return std::nullopt;
  if (!custom_handlers_) {
    custom_handlers_ = false;
    for (size_t i = 0; i < sim->service_count(); ++i) {
      if (sim->service_by_index(static_cast<int32_t>(i))->config().handler) {
        custom_handlers_ = true;
        break;
      }
    }
  }
  if (*custom_handlers_) return std::nullopt;
  Duration min_after = experiment.failures.front().after;
  for (const auto& spec : experiment.failures) {
    // InstanceCrash schedules outage events at apply() time — they would
    // belong inside the prefix, so the prefix is not fault-free for it.
    if (spec.kind == control::FailureSpec::Kind::kInstanceCrash) {
      return std::nullopt;
    }
    if (spec.after < min_after) min_after = spec.after;
  }
  if (min_after < kTick) return std::nullopt;  // immediate fault: no prefix
  if (experiment.load.horizon > kDurationZero &&
      min_after > experiment.load.horizon) {
    // The snapshot instant would lie beyond the run horizon.
    return std::nullopt;
  }

  // An unresolvable target degrades to the warm path, which reports the
  // error exactly as a cold run does.
  const std::string target =
      load_target(*graph, experiment.client, experiment.target);
  if (target.empty()) return std::nullopt;

  const TimePoint t_act = TimePoint{} + min_after;
  const TimePoint t_snap = t_act - kTick;

  // The body's checks decide what the prefix must capture: a run that
  // neither keeps the log nor feeds a record check suppresses records for
  // its whole duration, so its prefix runs with capture off too and the
  // snapshot holds no agent records.
  ExperimentBody body(experiment, graph, exec);
  const bool records = body.captures_records();

  // --- cache lookup -------------------------------------------------------
  std::string key = std::to_string(experiment.seed);
  key += '|';
  append_load_key(&key, experiment.load);
  key += experiment.client;
  key += '|';
  key += target;
  key += records ? "|records" : "|load-only";

  Entry* entry = nullptr;
  for (auto& e : entries_) {
    if (e->key == key) {
      entry = e.get();
      break;
    }
  }
  // Reusable only when the cached snapshot predates this experiment's
  // activation: running the restored world through an inert armed-rules
  // segment up to t_act is byte-identical to snapshotting later. A
  // snapshot AT or AFTER t_act overshoots — rebuild at the earlier instant
  // (the entry converges to the sweep's minimum activation).
  const bool rebuild = entry == nullptr || entry->t_snap >= t_act;

  if (rebuild) {
    if (entry == nullptr) {
      if (entries_.size() >= kMaxEntries) entries_.erase(entries_.begin());
      entries_.push_back(std::make_unique<Entry>());
      entry = entries_.back().get();
      entry->key = std::move(key);
    }
    ++misses_;
    // Drop the old snapshot before the driver its saved actions reference.
    entry->snap = sim::SimSnapshot{};
    entry->response_tape.clear();
    entry->prefix_result = control::LoadResult{};

    // Fault-free prefix: a freshly reset world, NO rules installed, the
    // load scheduled exactly as run_load schedules it, run to the last
    // pre-activation instant.
    sim->reset(experiment.seed);
    if (!records) sim->set_recording(false);
    sim->begin_snapshot_capture();
    entry->driver = std::make_unique<control::LoadDriver>(
        sim, experiment.client, target, experiment.load);
    entry->prefix_result.latencies.resize(experiment.load.count);
    entry->prefix_result.statuses.resize(experiment.load.count);
    entry->driver->bind(&entry->prefix_result,
                        [tape = &entry->response_tape](bool failed) {
                          tape->push_back(failed);
                        });
    entry->driver->schedule_all();
    sim->run_until(t_snap);  // no stop sources: never ends early
    entry->events_at_snapshot = sim->events_processed();
    entry->t_snap = t_snap;
    entry->snap = sim->snapshot();
    sim->end_snapshot_capture();
    entry->driver->bind(nullptr, {});
  }

  // --- early-exit tape replay (before touching the sim) -------------------
  if (exec.early_exit) {
    // The prefix appends nothing to the store (the collector only drains
    // at the end of a run), so mid-prefix stops can only come from user
    // responses: the tape reconstructs them exactly. Without early exit
    // nothing can stop the prefix, and no verdict reads the responses (a
    // load-based check finalizes from the LoadResult).
    control::OnlineChecker& online = body.online();
    for (const bool failed : entry->response_tape) {
      online.on_user_response(failed);
      if (online.all_decided()) {
        // A cold run would have stopped inside the prefix; that partial
        // run cannot be reproduced from the snapshot.
        return std::nullopt;
      }
    }
  }
  if (!rebuild) {
    ++hits_;
    prefix_events_skipped_ += entry->events_at_snapshot;
  }

  // --- restore + run the experiment from the snapshot ---------------------
  ExperimentResult result;
  result.id = experiment.id;
  result.seed = experiment.seed;
  result.snapshot_path = rebuild ? 1 : 2;
  if (!rebuild) result.prefix_events_skipped = entry->events_at_snapshot;

  sim->restore(entry->snap);
  control::TestSession session(sim, graph);
  // Rules carry absolute activation offsets, and pre-window matching is
  // side-effect-free — installing them at t_snap is equivalent to
  // installing them at t=0.
  if (!ExperimentBody::apply_failures(experiment, &session, rule_cache,
                                      &result)) {
    return result;
  }

  return body.run(
      std::move(result), &session,
      [sim, entry, &experiment](control::SimStreamCollector* /*collector*/,
                                std::function<void(bool failed)> on_response) {
        // The collector is never start()ed: the queue is non-empty after a
        // restore, so arming would schedule periodic drains a cold run
        // (whose queue is empty at start()) never schedules. Only the
        // final drain ships records — exactly the cold behaviour.
        control::LoadResult load = entry->prefix_result;  // partial outcome
        entry->driver->bind(&load, std::move(on_response));
        if (experiment.load.horizon > kDurationZero) {
          // Absolute deadline: cold computes now() + horizon at now == 0.
          sim->run_until(TimePoint{} + experiment.load.horizon);
        } else {
          sim->run();
        }
        load.stopped_early = sim->stop_requested();
        entry->driver->bind(nullptr, {});
        return load;
      });
}

}  // namespace gremlin::campaign
