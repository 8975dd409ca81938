// ExecutionContext: everything one campaign worker's experiments mutate,
// gathered behind a single per-worker object.
//
// Parallel campaigns used to scale *negatively* because the hot path
// threaded shared mutable state through every layer: the global symbol
// table's intern mutex, the process heap under every LogRecord and
// callback, and per-simulation event pools that each grew to their own
// peak. An ExecutionContext gives each worker private copies of all of it:
//
//   - a ShardSymbolTable (common/intern.h): interning without the global
//     mutex; new names merge into the global index only at result
//     boundaries (merge()), and ids never cross workers.
//   - a MemoryPool (common/arena.h): arena-backed size-class recycling for
//     the data plane's shared_ptr control blocks, queue buffers, and
//     container nodes.
//   - a sim::EventPool: one slab pool lent to every warm world the worker
//     drives (worlds run one at a time, so they can share a free list).
//   - the worker's warm-world pool, keyed by AppSpec identity.
//
// Workers therefore share nothing but the work queue and the final merge:
// CampaignRunner binds one context per worker (ScopedShardSymbols routes
// Symbol construction through the shard) and calls merge() after each
// result. Determinism is unaffected — experiment results depend only on
// (app, failures, load, checks, seed), and fingerprints carry no Symbol
// ids — so campaigns stay byte-identical across 1/4/8 threads, warm and
// cold (tests/differential_test.cc enforces this; the CI contention job
// runs it under ThreadSanitizer).
//
// Not thread-safe; one context per worker thread.
#pragma once

#include <memory>
#include <vector>

#include "campaign/runner.h"
#include "common/arena.h"
#include "common/intern.h"
#include "sim/event_queue.h"

namespace gremlin::campaign {

class WarmWorld;

class ExecutionContext {
 public:
  explicit ExecutionContext(bool warm_worlds = true);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // Runs one experiment, warm when possible (same semantics the runner's
  // per-worker WorldPool used to provide): reusable specs execute on a
  // context-owned warm world backed by this context's pools; custom or
  // non-reusable specs fall back to a cold private simulation.
  ExperimentResult execute(const Experiment& experiment,
                           const ExecOptions& exec);

  // The warm world for `app` (created on demand, evicting the oldest world
  // beyond the per-worker cap). Callers that need the world itself — the
  // search baseline reads its log store for the call graph — go through
  // here; execute() uses it internally.
  WarmWorld* world_for(const AppSpec& app);

  // Result boundary: publish this worker's newly minted symbols into the
  // global index. Cheap no-op when nothing is pending (the steady state).
  void merge() { symbols_.merge(); }

  ShardSymbolTable& symbols() { return symbols_; }

 private:
  // Bound on live deployments per worker: campaigns normally sweep one app,
  // so one world per worker is the steady state; a small pool tolerates
  // mixed-app batches without unbounded memory.
  static constexpr size_t kMaxWarmWorlds = 4;

  ShardSymbolTable symbols_;
  MemoryPool memory_;
  sim::EventPool event_pool_;
  bool warm_enabled_;
  std::vector<std::unique_ptr<WarmWorld>> worlds_;
};

}  // namespace gremlin::campaign
