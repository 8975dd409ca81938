#include "campaign/app_spec.h"

#include <atomic>
#include <memory>

namespace gremlin::campaign {

AppSpec::AppSpec() : uid_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

topology::AppGraph AppSpec::probe_graph() const {
  sim::Simulation scratch;
  return build(&scratch);
}

void ensure_graph_services(sim::Simulation* sim,
                           const topology::AppGraph& graph,
                           const sim::ServiceConfig& prototype) {
  for (const auto& name : graph.services()) {
    if (sim->find_service(name) != nullptr) continue;
    sim::ServiceConfig cfg = prototype;
    cfg.name = name;
    cfg.dependencies = graph.dependencies(name);
    sim->add_service(std::move(cfg));
  }
}

AppSpec AppSpec::from_graph(topology::AppGraph graph,
                            sim::ServiceConfig prototype) {
  AppSpec spec;
  spec.name = "graph";
  // Copies of the spec (and of every Experiment holding it) share one
  // immutable graph and prototype instead of deep-copying them.
  struct State {
    topology::AppGraph graph;
    sim::ServiceConfig prototype;
  };
  spec.build = [state = std::make_shared<const State>(
                    State{std::move(graph), std::move(prototype)})](
                   sim::Simulation* sim) {
    ensure_graph_services(sim, state->graph, state->prototype);
    return state->graph;
  };
  return spec;
}

AppSpec AppSpec::from_graph(
    topology::AppGraph graph,
    std::function<sim::ServiceConfig(const std::string&)> make) {
  AppSpec spec;
  spec.name = "graph";
  struct State {
    topology::AppGraph graph;
    std::function<sim::ServiceConfig(const std::string&)> make;
  };
  spec.build = [state = std::make_shared<const State>(
                    State{std::move(graph), std::move(make)})](
                   sim::Simulation* sim) {
    for (const auto& name : state->graph.services()) {
      if (sim->find_service(name) != nullptr) continue;
      sim::ServiceConfig cfg = state->make(name);
      cfg.name = name;
      cfg.dependencies = state->graph.dependencies(name);
      sim->add_service(std::move(cfg));
    }
    return state->graph;
  };
  return spec;
}

AppSpec AppSpec::quickstart(int retries, Duration timeout) {
  AppSpec spec;
  spec.name = "quickstart";
  spec.build = [retries, timeout](sim::Simulation* sim) {
    sim::ServiceConfig service_b;
    service_b.name = "serviceB";
    service_b.processing_time = msec(2);
    sim->add_service(service_b);

    sim::ServiceConfig service_a;
    service_a.name = "serviceA";
    service_a.processing_time = msec(1);
    service_a.dependencies = {"serviceB"};
    resilience::CallPolicy policy;
    policy.timeout = timeout;
    policy.retry.max_retries = retries;
    policy.retry.base_backoff = msec(10);
    service_a.default_policy = policy;
    sim->add_service(service_a);

    topology::AppGraph graph;
    graph.add_edge("user", "serviceA");
    graph.add_edge("serviceA", "serviceB");
    return graph;
  };
  return spec;
}

AppSpec AppSpec::tree(apps::TreeOptions options) {
  AppSpec spec;
  spec.name = "tree-depth" + std::to_string(options.depth);
  spec.build = [options](sim::Simulation* sim) {
    return apps::build_tree_app(sim, options);
  };
  return spec;
}

AppSpec AppSpec::buggy_tree(int depth, std::string buggy_src,
                            std::string buggy_dst) {
  AppSpec spec;
  spec.name = "buggy-tree";
  spec.build = [depth, buggy_src, buggy_dst](sim::Simulation* sim) {
    topology::AppGraph graph = topology::AppGraph::binary_tree(depth);
    sim->add_services_from_graph(
        graph, [&buggy_src, &buggy_dst](const std::string& name) {
          sim::ServiceConfig cfg;
          cfg.processing_time = msec(1);
          resilience::CallPolicy safe;
          safe.timeout = msec(200);
          safe.fallback = resilience::Fallback{200, "cached"};
          cfg.default_policy = safe;
          if (name == buggy_src) {
            resilience::CallPolicy buggy;  // no fallback, no timeout
            cfg.policies[buggy_dst] = buggy;
          }
          return cfg;
        });
    topology::AppGraph with_user = graph;
    with_user.add_edge("user", "svc0");
    return with_user;
  };
  return spec;
}

AppSpec AppSpec::enterprise(apps::EnterpriseOptions options) {
  AppSpec spec;
  spec.name = "enterprise";
  spec.build = [options](sim::Simulation* sim) {
    return apps::build_enterprise_app(sim, options);
  };
  return spec;
}

AppSpec AppSpec::wordpress(apps::WordPressOptions options) {
  AppSpec spec;
  spec.name = "wordpress";
  spec.build = [options](sim::Simulation* sim) {
    return apps::build_wordpress_app(sim, options);
  };
  return spec;
}

AppSpec AppSpec::redundant(apps::RedundantOptions options) {
  AppSpec spec;
  spec.name = "redundant";
  spec.build = [options](sim::Simulation* sim) {
    return apps::build_redundant_app(sim, options);
  };
  return spec;
}

AppSpec AppSpec::warmcache(apps::WarmCacheOptions options) {
  AppSpec spec;
  spec.name = "warmcache";
  spec.build = [options](sim::Simulation* sim) {
    return apps::build_warmcache_app(sim, options);
  };
  // The portal's ever-succeeded bit lives in the handler closure and
  // mutates across requests: a warm-world reset cannot restore run-zero
  // behaviour, so every experiment must build cold.
  spec.reusable = false;
  return spec;
}

namespace {

// Single-instance default-handler prototype shared by the mega factories:
// a small fixed processing time and a generous per-call timeout keep the
// request volume (not per-service config) as the scaling variable.
sim::ServiceConfig mega_prototype() {
  sim::ServiceConfig cfg;
  cfg.processing_time = msec(1);
  resilience::CallPolicy policy;
  policy.timeout = msec(500);
  cfg.default_policy = policy;
  return cfg;
}

// Parses a non-negative decimal integer spanning [pos, end) of `s`;
// returns -1 on empty or non-digit input.
int parse_int(const std::string& s, size_t pos, size_t end) {
  if (pos >= end || end > s.size()) return -1;
  long value = 0;
  for (size_t i = pos; i < end; ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
    if (value > 1'000'000) return -1;  // reject absurd sizes early
  }
  return static_cast<int>(value);
}

}  // namespace

AppSpec AppSpec::mega(int tiers, int width, uint64_t seed, int fan_out) {
  AppSpec spec = from_graph(topology::AppGraph::tiered(tiers, width, seed,
                                                       fan_out),
                            mega_prototype());
  spec.name = "mega:" + std::to_string(tiers) + "x" + std::to_string(width);
  return spec;
}

AppSpec AppSpec::mega_dag(int services, int avg_degree, uint64_t seed) {
  AppSpec spec = from_graph(
      topology::AppGraph::random_dag(services, avg_degree, seed),
      mega_prototype());
  spec.name = "megadag:" + std::to_string(services);
  return spec;
}

Result<AppSpec> AppSpec::named(const std::string& name) {
  if (name == "quickstart") return quickstart(3, msec(300));
  if (name == "tree") return tree();
  if (name == "buggy-tree") return buggy_tree();
  if (name == "redundant") return redundant();
  if (name == "warmcache") return warmcache();
  if (name == "enterprise") return enterprise();
  if (name == "wordpress") return wordpress();
  if (name.rfind("mega:", 0) == 0) {
    const size_t x = name.find('x', 5);
    const int tiers = x == std::string::npos ? -1 : parse_int(name, 5, x);
    const int width =
        x == std::string::npos ? -1 : parse_int(name, x + 1, name.size());
    if (tiers <= 0 || width <= 0) {
      return Error::invalid_argument(
          "malformed mega app '" + name + "' (expected mega:<tiers>x<width>, "
          "e.g. mega:10x50)");
    }
    return mega(tiers, width);
  }
  if (name.rfind("megadag:", 0) == 0) {
    const int services = parse_int(name, 8, name.size());
    if (services <= 0) {
      return Error::invalid_argument(
          "malformed megadag app '" + name +
          "' (expected megadag:<services>, e.g. megadag:500)");
    }
    return mega_dag(services);
  }
  return Error::invalid_argument(
      "unknown app '" + name +
      "' (expected quickstart, tree, buggy-tree, redundant, warmcache, "
      "enterprise, wordpress, mega:<tiers>x<width>, or "
      "megadag:<services>)");
}

}  // namespace gremlin::campaign
