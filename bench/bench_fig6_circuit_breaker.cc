// Figure 6: CDFs of WordPress response times — first 100 requests aborted,
// next 100 delayed by 3s.
//
// The paper's Overload test: Gremlin aborts 100 consecutive
// WordPress→Elasticsearch requests, then delays the next 100 by three
// seconds. With a correct circuit breaker, a portion of the delayed
// requests would return immediately (breaker open after the abort storm);
// ElasticPress has none, so every delayed request completes only after 3s.
//
// Output: the aborted-phase CDF, the delayed-phase CDF, the paper-shape
// check (no delayed request under 3s), and the counterfactual with a
// breaker (threshold 50) where all delayed-phase requests are fast.
#include <cstdio>

#include "apps/wordpress.h"
#include "control/recipe.h"
#include "workload/stats.h"

namespace {

using namespace gremlin;  // NOLINT

struct PhaseResult {
  std::vector<Duration> aborted_phase;
  std::vector<Duration> delayed_phase;
};

PhaseResult run_fig6(bool with_breaker) {
  sim::SimulationConfig cfg;
  cfg.seed = 42;
  sim::Simulation sim(cfg);
  apps::WordPressOptions options;
  options.with_circuit_breaker = with_breaker;
  options.breaker = resilience::CircuitBreakerConfig{50, sec(60), 1};
  auto graph = apps::build_wordpress_app(&sim, options);
  control::TestSession session(&sim, graph);

  control::FailureSpec abort_spec = control::FailureSpec::abort_edge(
      "wordpress", "elasticsearch", 503);
  abort_spec.max_matches = 100;
  control::FailureSpec delay_spec = control::FailureSpec::delay_edge(
      "wordpress", "elasticsearch", sec(3));
  delay_spec.max_matches = 100;
  if (!session.apply(abort_spec).ok() || !session.apply(delay_spec).ok()) {
    std::fprintf(stderr, "rule install failed\n");
    std::exit(1);
  }

  control::LoadOptions load;
  load.count = 200;
  load.closed_loop = true;  // sequential requests, like the paper's ab run
  const auto result = session.run_load("user", "wordpress", load);

  PhaseResult phases;
  for (size_t i = 0; i < 100; ++i) {
    phases.aborted_phase.push_back(result.latencies[i]);
  }
  for (size_t i = 100; i < 200; ++i) {
    phases.delayed_phase.push_back(result.latencies[i]);
  }
  return phases;
}

void print_phase(const char* label, const std::vector<Duration>& latencies) {
  const auto summary = workload::summarize(latencies);
  std::printf("## %s\n%s", label,
              workload::format_cdf(latencies, 10).c_str());
  std::printf("min=%.3fs p50=%.3fs max=%.3fs\n\n", to_seconds(summary.min),
              to_seconds(summary.p50), to_seconds(summary.max));
}

}  // namespace

int main() {
  std::printf(
      "# Figure 6 — WordPress response-time CDFs: 100 aborted then 100\n"
      "# delayed (3s) requests on the WordPress->Elasticsearch edge\n\n");

  std::printf("=== ElasticPress as shipped (no circuit breaker) ===\n");
  const auto shipped = run_fig6(false);
  print_phase("aborted phase (mysql fallback)", shipped.aborted_phase);
  print_phase("delayed phase", shipped.delayed_phase);
  size_t under_3s = 0;
  for (const Duration lat : shipped.delayed_phase) {
    if (lat < sec(3)) ++under_3s;
  }
  std::printf(
      "shape-check: delayed requests returning before 3s: %zu/100 %s\n\n",
      under_3s,
      under_3s == 0 ? "(none — no tripped circuit breaker, as in the paper)"
                    : "(breaker behaviour detected?)");

  std::printf("=== counterfactual: circuit breaker, threshold 50 ===\n");
  const auto fixed = run_fig6(true);
  print_phase("delayed phase with breaker", fixed.delayed_phase);
  size_t fast = 0;
  for (const Duration lat : fixed.delayed_phase) {
    if (lat < sec(1)) ++fast;
  }
  std::printf(
      "shape-check: delayed requests returning immediately: %zu/100 "
      "(breaker tripped during the abort phase)\n",
      fast);
  return 0;
}
