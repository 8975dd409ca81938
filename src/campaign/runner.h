// CampaignRunner: executes a batch of Experiments in parallel.
//
// Each worker thread binds a private ExecutionContext (warm worlds, symbol
// shard, pools; campaign/execution_context.h), so workers share no mutable
// experiment state and need no locks on the hot path. Experiments run on
// the context's warm world for their app (deep-reset between runs,
// campaign/warm_world.h) or, for custom and non-reusable specs, on a fresh
// private Simulation. Workers claim contiguous index ranges off one atomic
// cursor with the same adaptive chunk rule forked shards lease with
// (claim_chunk, campaign/process_pool.h), so a handful of slow experiments
// (e.g. hour-long Hang horizons) cannot idle the other cores.
//
// Determinism contract: experiment results depend only on (app spec,
// failure specs, load, checks, seed) — never on thread count, scheduling
// order, or sibling experiments. `threads=8` is byte-identical to
// `threads=1` (tests/differential_test.cc enforces this across every
// execution mode).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/experiment.h"
#include "common/inline_function.h"

namespace gremlin::control {
class RuleCache;
class SimStreamCollector;
}

namespace gremlin::campaign {

struct RunnerOptions {
  // Worker threads; 0 → std::thread::hardware_concurrency (min 1).
  // With procs > 1 this is the thread count *per worker process* and 0
  // resolves to hardware_concurrency / procs instead, so sharding splits
  // the machine rather than oversubscribing it.
  int threads = 0;

  // Worker processes (multi-process campaign sharding, see
  // campaign/process_pool.h): > 1 forks that many shard processes, each
  // hosting `threads` execution threads with their own warm-world pools,
  // leases experiment ranges through a shared-memory cursor, and merges
  // the streamed results in experiment order. Byte-identical — both
  // fingerprint() and verdict_fingerprint() — to procs=1 at any
  // procs × threads combination; a crashed worker's unfinished lease is
  // re-queued onto survivors (wall-clock cost, never correctness).
  // <= 1, or platforms without fork, run in-process.
  int procs = 1;

  // Drop per-request latency/status vectors from results (saves memory on
  // very large sweeps; fingerprints then cover verdicts + counters only).
  bool keep_latencies = true;

  // Early termination: every run streams its records into the checks'
  // state machines; with this on, the simulation stops the moment every
  // check has a final (sticky) verdict. Verdicts are unchanged; raw
  // counters/latencies of a stopped run cover only the completed prefix,
  // so disable this (--no-early-exit) when fingerprints must be
  // byte-identical to a full run.
  bool early_exit = true;

  // Warm-world execution: each worker keeps long-lived Simulations (one per
  // distinct AppSpec identity, small bounded pool) and deep-resets them
  // between experiments instead of destructing/reconstructing, with fault
  // translations memoized per world (control::RuleCache). Results are
  // byte-identical to cold construction — fingerprint() and
  // verdict_fingerprint() both — enforced by tests/differential_test.cc.
  // Custom experiments and non-reusable specs fall back to
  // cold construction automatically; --cold disables reuse entirely.
  bool warm_worlds = true;

  // Timer-wheel event scheduling in every worker Simulation (see
  // sim/event_queue.h). Off forces the pure binary-heap scheduler — the
  // pre-wheel behaviour, kept as a runtime toggle so tests/differential_test
  // can verify wheel-on results are byte-identical to the heap-only
  // schedule. docs/PERFORMANCE.md records what the wheel saves on perfbench's
  // mega-mixed workload.
  bool use_timer_wheel = true;

  // Prefix-snapshot execution (campaign/snapshot_exec.h): experiments whose
  // fault rules all activate at `after > 0` share the fault-free prefix —
  // each warm world simulates it once, snapshots, and restores siblings
  // from the snapshot instead of replaying from t=0. Byte-identical —
  // fingerprint() and verdict_fingerprint() both — to the warm-world path;
  // experiments with immediate faults (or custom bodies, non-reusable
  // specs, or apps with a custom service handler) degrade to that path
  // automatically. --no-snapshot disables.
  bool use_snapshots = true;

  // Optional progress hook, invoked after each experiment completes.
  // Called from worker threads under an internal mutex — keep it cheap.
  std::function<void(const struct ExperimentResult&)> on_result;
};

// Per-run execution knobs for run_one/run_in (RunnerOptions is the
// campaign-level surface; this is the single-experiment one).
struct ExecOptions {
  bool keep_latencies = true;

  // Stop the simulation once every attached check reached a final verdict.
  bool early_exit = true;

  // Keep the full log in sim->log_store() after the run (streamed records
  // are appended to the store too, record suppression is off, and what was
  // not streamed is collected). Required by callers that read the log
  // afterwards, e.g. call-graph extraction.
  bool preserve_log = false;

  // Scheduler selection for the private Simulation (RunnerOptions
  // docs; results are byte-identical either way).
  bool use_timer_wheel = true;

  // Prefix-snapshot execution in warm worlds (RunnerOptions docs;
  // byte-identical either way).
  bool use_snapshots = true;
};

// Outcome of one experiment.
struct ExperimentResult {
  std::string id;
  uint64_t seed = 0;

  bool ok = false;     // infrastructure worked (translate/install/collect)
  std::string error;   // set when !ok

  size_t rules_installed = 0;
  std::vector<control::CheckResult> checks;
  size_t checks_passed = 0;

  size_t requests = 0;
  size_t failures = 0;  // user-visible load failures
  std::vector<Duration> latencies;
  std::vector<int> statuses;

  // True when online checking stopped the simulation before quiescence.
  // Deliberately NOT part of fingerprint(): it describes how the result
  // was obtained, not what the experiment observed.
  bool early_terminated = false;

  // How the experiment executed (like early_terminated, NOT fingerprinted):
  // 0 = normal path, 1 = built a prefix snapshot (cache miss), 2 = restored
  // from one (cache hit). prefix_events_skipped counts the prefix events a
  // hit did not re-simulate.
  uint8_t snapshot_path = 0;
  uint64_t prefix_events_skipped = 0;

  bool passed() const { return ok && checks_passed == checks.size(); }

  // Byte-exact digest of everything above; equal fingerprints mean equal
  // results. Used by the determinism tests and by perfbench's digests.
  std::string fingerprint() const;

  // Verdict-only digest: id, seed, ok/error, and each check's pass/fail by
  // name — no details, counters, or latencies. Early termination preserves
  // verdicts but not raw counters, so this is the digest that must match
  // between early-exit and full runs (tests/differential_test.cc compares
  // it).
  std::string verdict_fingerprint() const;
};

struct CampaignResult {
  // Same order as the input experiment list, independent of which worker
  // ran what.
  std::vector<ExperimentResult> experiments;
  Duration wall_clock{};  // real elapsed time for the whole batch
  int threads = 1;        // execution threads (per process when procs > 1)
  int procs = 1;          // worker processes that ran the batch

  size_t passed() const;
  size_t failed() const;
  size_t errors() const;

  // Concatenated per-experiment fingerprints.
  std::string fingerprint() const;

  // Concatenated per-experiment verdict fingerprints (see
  // ExperimentResult::verdict_fingerprint).
  std::string verdict_fingerprint() const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options = {});

  CampaignResult run(const std::vector<Experiment>& experiments) const;

  // Executes one experiment on a fresh private Simulation. Pure apart from
  // the simulation it builds and discards; safe to call concurrently.
  static ExperimentResult run_one(const Experiment& experiment,
                                  const ExecOptions& exec = {});

  // As run_one, but on a caller-provided Simulation, which must be freshly
  // constructed with the experiment's seed. Lets callers keep the deployment
  // alive after the run — the fault-space search replays a baseline this way
  // and then reads the observed call graph out of sim->log_store(). Any
  // events an early exit left pending are cancelled before returning, so a
  // kept-alive sim is reusable.
  static ExperimentResult run_in(const Experiment& experiment,
                                 sim::Simulation* sim,
                                 const ExecOptions& exec);

  // The warm-path core run_one/run_in delegate to. `graph` non-null skips
  // AppSpec::instantiate (the sim already hosts the deployment — freshly
  // reset); `rule_cache` non-null memoizes fault translation. Both null
  // reproduces run_in exactly. Used by WarmWorld; most callers want run_one
  // or WarmWorld::run instead.
  static ExperimentResult run_prepared(const Experiment& experiment,
                                       sim::Simulation* sim,
                                       const topology::AppGraph* graph,
                                       control::RuleCache* rule_cache,
                                       const ExecOptions& exec);

  int resolved_threads() const;

  const RunnerOptions& options() const { return options_; }

 private:
  RunnerOptions options_;
};

// The experiment body both execution paths share: run_prepared and the
// prefix-snapshot path (campaign/snapshot_exec.h). It owns the check state
// machines, the record-capture flag, the stream collector and response
// observer that feed them, the final drain and teardown, the collect and
// the verdicts; each path keeps only how it installs faults and drives the
// load.
// Internal: callers want CampaignRunner::run_one or WarmWorld::run.
class ExperimentBody {
 public:
  // Drives the load to completion: gets the streaming collector (null
  // unless the checks consume records) and the response observer, detaches
  // the observer once the simulation stops, and returns the load's outcome.
  using Drive = InlineFunction<control::LoadResult(
      control::SimStreamCollector* collector,
      std::function<void(bool failed)> on_response)>;

  // Builds one state machine per check of `experiment`.
  ExperimentBody(const Experiment& experiment,
                 const topology::AppGraph* graph, const ExecOptions& exec);

  // run() installs observers that point at this object.
  ExperimentBody(const ExperimentBody&) = delete;
  ExperimentBody& operator=(const ExperimentBody&) = delete;

  // The experiment's checks. Every run streams records and user-visible
  // responses into them and finalizes them into the verdicts.
  control::OnlineChecker& online() { return online_; }

  // Whether the run captures observation records: only when it keeps the
  // log or a check consumes records. Otherwise run() switches capture off
  // for the whole run.
  bool captures_records() const {
    return exec_.preserve_log || online_.wants_records();
  }

  // Wires the observers around `drive`, then drains, tears down, collects
  // (preserve_log only) and finalizes the checks; with early_exit, the run
  // stops once every check is decided. `result` arrives with id, seed and
  // installed rules set.
  ExperimentResult run(ExperimentResult result, control::TestSession* session,
                       const Drive& drive);

  // Installs `experiment`'s failures through `session`, counting the rules
  // into `result`; false (with result->error set) when one cannot apply.
  static bool apply_failures(const Experiment& experiment,
                             control::TestSession* session,
                             control::RuleCache* rule_cache,
                             ExperimentResult* result);

 private:
  const ExecOptions& exec_;
  control::OnlineChecker online_;
};

}  // namespace gremlin::campaign
