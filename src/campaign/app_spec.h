// AppSpec: a declarative, reusable description of an application under test.
//
// The campaign engine runs many isolated experiments, each on a private
// Simulation, so topology + handler wiring must be a *factory* rather than
// a live object: an AppSpec holds a build function that instantiates the
// application into any fresh Simulation and returns its logical AppGraph.
// build() must be deterministic — the same spec built into two simulations
// with the same seed produces identical behaviour (the campaign determinism
// contract, see docs/CAMPAIGNS.md).
//
// Factories cover the repo's case-study apps (quickstart, enterprise,
// wordpress, binary trees) plus `from_graph`, which mirrors the DSL
// interpreter's autocreate semantics: every graph node becomes a
// default-handler service calling its dependencies in order.
#pragma once

#include <functional>
#include <string>

#include "apps/enterprise.h"
#include "apps/redundant.h"
#include "apps/trees.h"
#include "apps/warmcache.h"
#include "apps/wordpress.h"
#include "sim/simulation.h"
#include "topology/graph.h"

namespace gremlin::campaign {

struct AppSpec {
  AppSpec();

  std::string name;
  // Copies of a spec (and so of every Experiment) copy this function, and
  // with it only a shared pointer to the state it captured: from_graph
  // captures its graph and prototype or `make` behind one
  // shared_ptr<const ...>, the other factories only small values. Every
  // copy, on every thread, reads that state concurrently through
  // instantiate(), so it must stay immutable.
  std::function<topology::AppGraph(sim::Simulation*)> build;

  // Warm-world eligibility. build() functions whose captured state mutates
  // across runs (so Simulation::reset cannot restore run-zero behaviour)
  // must clear this; the campaign runner then constructs cold per
  // experiment. Every factory below is stateless and stays reusable.
  bool reusable = true;

  // Process-unique identity stamped at construction and shared by copies —
  // the warm-world cache key. Names are not usable for this: every
  // from_graph spec is called "graph".
  uint64_t identity() const { return uid_; }

  // Builds the application into `sim` and returns the logical graph.
  topology::AppGraph instantiate(sim::Simulation* sim) const {
    return build(sim);
  }

  // The logical graph without keeping a live deployment: builds into a
  // scratch Simulation. Used by experiment generators, which enumerate
  // edges/services before any experiment runs.
  topology::AppGraph probe_graph() const;

  // Every graph node becomes a single-instance service cloned from
  // `prototype` (name and dependencies overwritten per node), running the
  // default handler: call each dependency in order, fail upstream on the
  // first failure. Entry clients (e.g. "user") become services too, exactly
  // like the DSL interpreter's autocreate.
  static AppSpec from_graph(topology::AppGraph graph,
                            sim::ServiceConfig prototype = {});

  // As above but with a per-service config hook (the
  // Simulation::add_services_from_graph contract).
  static AppSpec from_graph(
      topology::AppGraph graph,
      std::function<sim::ServiceConfig(const std::string&)> make);

  // The paper's running example (Section 3.2): user → serviceA → serviceB,
  // with serviceA's retry budget and timeout as the spec parameters.
  static AppSpec quickstart(int retries, Duration timeout);

  // Complete binary tree (Section 7.2 scaling apps); svc0 is the entry.
  static AppSpec tree(apps::TreeOptions options = {});

  // The ablation topology: a binary tree where every dependency call has a
  // timeout + cached fallback EXCEPT `buggy_src` → `buggy_dst` — the single
  // latent bug a systematic sweep must localize.
  static AppSpec buggy_tree(int depth = 3, std::string buggy_src = "svc0",
                            std::string buggy_dst = "svc2");

  // The IBM enterprise case study (Section 7.1, Figure 4).
  static AppSpec enterprise(apps::EnterpriseOptions options = {});

  // WordPress + ElasticPress + Elasticsearch + MySQL (Section 7.1).
  static AppSpec wordpress(apps::WordPressOptions options = {});

  // The fault-space search testbed: mirrored replica reads that absorb any
  // single fault but 502 when both replicas fail, plus a feature-flagged
  // audit subtree the baseline workload never touches (docs/SEARCH.md).
  static AppSpec redundant(apps::RedundantOptions options = {});

  // The probabilistic/windowed testbed: a cold-start fallback absorbs every
  // always-on fault, but a success-then-failure transition returns 500 —
  // only probabilistic or time-bounded faults reach the bug. Not reusable:
  // the portal's ever-succeeded bit lives in the handler closure
  // (docs/FAULTS.md).
  static AppSpec warmcache(apps::WarmCacheOptions options = {});

  // Seeded mega-topology: `tiers` x `width` services behind a "gw" gateway
  // (AppGraph::tiered), every node a single-instance default-handler
  // service. Deterministic in (tiers, width, seed, fan_out); sized for
  // 100–1000 service deployments (docs/CAMPAIGNS.md).
  static AppSpec mega(int tiers, int width, uint64_t seed = 42,
                      int fan_out = 3);

  // Seeded random-DAG mega-topology over `services` nodes
  // (AppGraph::random_dag); "n0" is the entry point.
  static AppSpec mega_dag(int services, int avg_degree = 3,
                          uint64_t seed = 42);

  // Looks up a built-in spec by name ("quickstart", "tree", "buggy-tree",
  // "redundant", "warmcache", "enterprise", "wordpress"), with default
  // options — the `gremlin search --app <name>` registry. Also accepts the
  // parameterized mega-topology forms "mega:<tiers>x<width>" (e.g.
  // "mega:10x50" → 501 services) and "megadag:<services>". Fails on
  // unknown names.
  static Result<AppSpec> named(const std::string& name);

 private:
  uint64_t uid_;
};

// Instantiates every `graph` service missing from `sim` as a clone of
// `prototype` with the default handler (shared by AppSpec::from_graph and
// the DSL interpreter's autocreate).
void ensure_graph_services(sim::Simulation* sim,
                           const topology::AppGraph& graph,
                           const sim::ServiceConfig& prototype = {});

}  // namespace gremlin::campaign
