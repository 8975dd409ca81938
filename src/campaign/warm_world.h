// WarmWorld: a long-lived deployment reused across experiments.
//
// Campaigns and fault-space searches run thousands of experiments that
// differ only in fault set and seed; rebuilding the Simulation per
// experiment (services, instances, agents, dep caches) dominates small-app
// experiment cost. A WarmWorld builds the AppSpec's deployment once, marks
// it as the baseline, and between experiments calls Simulation::reset(seed)
// — a deep reset restoring the exact state a cold build with that seed
// would start from — plus memoizes fault-rule translation per deployment
// graph (control::RuleCache).
//
// Contract: WarmWorld::run is byte-identical (fingerprint() AND
// verdict_fingerprint()) to CampaignRunner::run_one for every experiment.
// tests/warm_world_test.cc enforces this run by run, and
// tests/differential_test.cc across whole campaigns and searches.
//
// Cold fallback: custom experiments (their hook drives the session
// imperatively and may mutate the deployment arbitrarily) and specs marked
// !reusable run on a fresh throwaway Simulation and leave the world
// untouched.
//
// Not thread-safe; each campaign worker owns its pool of worlds.
#pragma once

#include <memory>

#include "campaign/runner.h"
#include "campaign/snapshot_exec.h"
#include "control/rule_cache.h"
#include "sim/simulation.h"
#include "topology/graph.h"

namespace gremlin::campaign {

class WarmWorld {
 public:
  // Optional worker-context resources (see campaign::ExecutionContext):
  // an event pool and memory pool shared by every world the owning worker
  // drives. Null means the world's Simulation owns private ones.
  explicit WarmWorld(AppSpec app, sim::EventPool* event_pool = nullptr,
                     MemoryPool* memory = nullptr)
      : app_(std::move(app)), event_pool_(event_pool), memory_(memory) {}

  // Runs one experiment on the warm deployment. `experiment.app` must be a
  // copy of the spec this world was built from (same identity()); sweep
  // generators and seed replication guarantee that.
  ExperimentResult run(const Experiment& experiment, const ExecOptions& exec);

  const AppSpec& app() const { return app_; }
  // Null until the first (non-fallback) run builds the deployment. After a
  // preserve_log run, the log is readable here (pruner baseline).
  sim::Simulation* simulation() { return sim_.get(); }
  const topology::AppGraph& graph() const { return graph_; }
  const control::RuleCache& rule_cache() const { return rule_cache_; }
  // Experiments executed warm (excludes cold fallbacks).
  size_t runs() const { return runs_; }
  // Prefix-snapshot cache stats (campaign reporting).
  const SnapshotCache& snapshots() const { return snapshot_cache_; }

 private:
  AppSpec app_;
  sim::EventPool* event_pool_;
  MemoryPool* memory_;
  std::unique_ptr<sim::Simulation> sim_;
  topology::AppGraph graph_;
  control::RuleCache rule_cache_;
  // Declared after sim_ so it is destroyed first: cache entries pin
  // request-path objects whose destructors unlink from the simulation.
  SnapshotCache snapshot_cache_;
  size_t runs_ = 0;
};

}  // namespace gremlin::campaign
