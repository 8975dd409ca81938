// Figure 7: time to orchestrate an outage and run assertions as a function
// of the number of services in the application.
//
// The paper deploys binary trees of depth 1..5 (1, 3, 7, 15, 31 services),
// sets up a Delay outage impacting every service, injects 100 test
// requests, then executes one assertion per service, reporting the
// orchestration and assertion components separately. We measure the same
// two components of *our* control plane (wall-clock): rule translation +
// installation on every agent, and log collection + per-service assertion
// evaluation. Depth 6 (63 services) extends the sweep beyond the paper.
//
// Shape expectations: both components grow roughly linearly with service
// count and the whole test stays well under a second at 31 services.
#include <chrono>
#include <cstdio>

#include "apps/trees.h"
#include "control/recipe.h"

namespace {

using namespace gremlin;  // NOLINT

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Fig7Row {
  int services = 0;
  double orchestration_ms = 0;
  double injection_ms = 0;   // simulating the 100 test requests
  double assertion_ms = 0;
  int assertions_run = 0;
  int assertions_passed = 0;
};

Fig7Row run_depth(int depth) {
  sim::SimulationConfig cfg;
  cfg.seed = 42;
  sim::Simulation sim(cfg);
  apps::TreeOptions options;
  options.depth = depth;
  options.processing_time = msec(1);
  auto graph = apps::build_tree_app(&sim, options);
  control::TestSession session(&sim, graph);

  Fig7Row row;
  row.services = (1 << depth) - 1;

  // --- orchestration: a Delay outage impacting every service ---
  std::vector<control::FailureSpec> specs;
  for (const auto& edge : graph.edges()) {
    if (edge.src == "user") continue;  // edge client is created on inject
    specs.push_back(
        control::FailureSpec::delay_edge(edge.src, edge.dst, msec(2)));
  }
  if (specs.empty()) {
    // Single-service tree: delay the user-facing edge itself so depth 1
    // still orchestrates a non-empty outage.
    sim.inject("user", "svc0", sim::SimRequest{.request_id = "warm"},
               [](const sim::SimResponse&) {});
    sim.run();
    specs.push_back(control::FailureSpec::delay_edge("user", "svc0",
                                                     msec(2)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto applied = session.apply_all(specs);
  row.orchestration_ms = elapsed_ms(t0);
  if (!applied.ok()) {
    std::fprintf(stderr, "orchestration failed: %s\n",
                 applied.error().message.c_str());
    std::exit(1);
  }

  // --- inject 100 test requests ---
  const auto t1 = std::chrono::steady_clock::now();
  control::LoadOptions load;
  load.count = 100;
  load.gap = msec(5);
  session.run_load("user", "svc0", load);
  row.injection_ms = elapsed_ms(t1);

  // --- assertions: one per service ---
  const auto t2 = std::chrono::steady_clock::now();
  if (!session.collect().ok()) {
    std::fprintf(stderr, "log collection failed\n");
    std::exit(1);
  }
  auto checker = session.checker();
  for (const auto& service : graph.services()) {
    if (service == "user") continue;
    // Delays of 2ms per hop: every service must still answer within 1s.
    const auto result = checker.has_timeouts(service, sec(1));
    ++row.assertions_run;
    if (result.passed) ++row.assertions_passed;
  }
  row.assertion_ms = elapsed_ms(t2);
  return row;
}

}  // namespace

int main() {
  std::printf(
      "# Figure 7 — orchestration + assertion wall time vs application "
      "size\n# (binary trees; Delay outage on every edge; 100 test "
      "requests;\n#  one assertion per service)\n\n");
  std::printf("%9s %16s %13s %13s %8s\n", "services", "orchestrate_ms",
              "inject_ms", "assert_ms", "checks");
  double per_service_cost = 0;
  int depths = 0;
  for (int depth = 1; depth <= 6; ++depth) {
    const Fig7Row row = run_depth(depth);
    std::printf("%9d %16.3f %13.3f %13.3f %5d/%d\n", row.services,
                row.orchestration_ms, row.injection_ms, row.assertion_ms,
                row.assertions_passed, row.assertions_run);
    per_service_cost +=
        (row.orchestration_ms + row.assertion_ms) / row.services;
    ++depths;
  }
  std::printf(
      "\nshape-check: mean (orchestration+assertion) cost per service = "
      "%.3f ms\n(paper: both components stay low and the full test "
      "completes in well under a second at 31 services)\n",
      per_service_cost / depths);
  return 0;
}
