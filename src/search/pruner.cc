#include "search/pruner.h"

namespace gremlin::search {

namespace {

// The baseline replay: the experiment without faults or custom body, run
// to quiescence with the full log preserved — pruning needs the complete
// observed call graph.
campaign::Experiment clean_baseline(const campaign::Experiment& experiment) {
  campaign::Experiment clean = experiment;
  clean.id = "baseline";
  clean.failures.clear();
  clean.custom = nullptr;
  return clean;
}

campaign::ExecOptions baseline_exec() {
  campaign::ExecOptions exec;
  exec.keep_latencies = false;
  exec.early_exit = false;
  exec.preserve_log = true;
  return exec;
}

}  // namespace

Baseline run_baseline(const campaign::Experiment& experiment) {
  const campaign::Experiment clean = clean_baseline(experiment);
  sim::SimulationConfig cfg;
  cfg.seed = clean.seed;
  sim::Simulation sim(cfg);
  Baseline baseline;
  baseline.result =
      campaign::CampaignRunner::run_in(clean, &sim, baseline_exec());
  baseline.call_graph = sim.log_store().call_graph();
  return baseline;
}

Baseline run_baseline(const campaign::Experiment& experiment,
                      campaign::WarmWorld* world) {
  if (world == nullptr || !world->app().reusable) {
    return run_baseline(experiment);
  }
  Baseline baseline;
  baseline.result = world->run(clean_baseline(experiment), baseline_exec());
  baseline.call_graph = world->simulation()->log_store().call_graph();
  return baseline;
}

const char* to_string(PruneVerdict verdict) {
  switch (verdict) {
    case PruneVerdict::kKeep:
      return "keep";
    case PruneVerdict::kUnreachableFault:
      return "unreachable-fault";
    case PruneVerdict::kNoSharedPath:
      return "no-shared-path";
  }
  return "unknown";
}

namespace {

bool touches(const logstore::CallGraph::EdgeSet& path,
             const std::vector<topology::Edge>& trigger_edges) {
  for (const auto& edge : trigger_edges) {
    if (path.count({edge.src, edge.dst}) != 0) return true;
  }
  return false;
}

}  // namespace

PruneDecision decide(const std::vector<FaultPoint>& points,
                     const Combination& combination,
                     const logstore::CallGraph& observed) {
  PruneDecision decision;
  for (const size_t index : combination.points) {
    const FaultPoint& point = points[index];
    bool reachable = false;
    for (const auto& edge : point.trigger_edges) {
      if (observed.observed(edge.src, edge.dst)) {
        reachable = true;
        break;
      }
    }
    if (!reachable) {
      decision.verdict = PruneVerdict::kUnreachableFault;
      decision.detail = point.label + " touches no observed edge";
      return decision;
    }
  }

  if (combination.points.size() > 1) {
    // Faults interact only when one request can meet all of them: some
    // observed path signature must intersect every point's trigger set.
    bool shared = false;
    for (const auto& path : observed.paths) {
      bool all = true;
      for (const size_t index : combination.points) {
        if (!touches(path, points[index].trigger_edges)) {
          all = false;
          break;
        }
      }
      if (all) {
        shared = true;
        break;
      }
    }
    if (!shared) {
      decision.verdict = PruneVerdict::kNoSharedPath;
      decision.detail = "no observed request path meets every fault";
      return decision;
    }
  }
  return decision;
}

}  // namespace gremlin::search
