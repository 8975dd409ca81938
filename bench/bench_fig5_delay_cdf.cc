// Figure 5: CDFs of response times from WordPress, based on injected delay
// between WordPress and Elasticsearch.
//
// The paper injects Delay faults of 1s..4s on the WordPress→Elasticsearch
// edge and measures WordPress's end-user response time. Because
// ElasticPress implements no timeout pattern, the quickest response time is
// dictated by the injected delay — every CDF starts at its delay value.
//
// Output: one CDF series per injected delay, plus the paper-shape check
// (min response time ≈ injected delay), plus a counterfactual run with a
// 1s timeout enabled to show the CDFs collapsing.
#include <cstdio>
#include <vector>

#include "apps/wordpress.h"
#include "control/recipe.h"
#include "workload/stats.h"

namespace {

using namespace gremlin;  // NOLINT

control::LoadResult run_wordpress_with_delay(Duration delay,
                                             bool with_timeout,
                                             size_t requests) {
  sim::SimulationConfig cfg;
  cfg.seed = 42;
  sim::Simulation sim(cfg);
  apps::WordPressOptions options;
  options.with_timeout = with_timeout;
  options.timeout = sec(1);
  auto graph = apps::build_wordpress_app(&sim, options);
  control::TestSession session(&sim, graph);

  auto applied = session.apply(control::FailureSpec::delay_edge(
      "wordpress", "elasticsearch", delay));
  if (!applied.ok()) {
    std::fprintf(stderr, "rule install failed: %s\n",
                 applied.error().message.c_str());
    std::exit(1);
  }
  control::LoadOptions load;
  load.count = requests;
  load.gap = msec(50);
  return session.run_load("user", "wordpress", load);
}

}  // namespace

int main() {
  constexpr size_t kRequests = 100;
  std::printf(
      "# Figure 5 — CDFs of WordPress response times under injected\n"
      "# WordPress->Elasticsearch delay (ElasticPress: no timeout pattern)\n"
      "# %zu requests per setting, seed 42\n\n",
      kRequests);

  for (const int delay_s : {1, 2, 3, 4}) {
    const auto result =
        run_wordpress_with_delay(sec(delay_s), false, kRequests);
    const auto summary = workload::summarize(result.latencies);
    std::printf("## injected delay = %ds\n", delay_s);
    std::printf("%s", workload::format_cdf(result.latencies, 10).c_str());
    std::printf("min=%.3fs p50=%.3fs max=%.3fs failures=%zu\n",
                to_seconds(summary.min), to_seconds(summary.p50),
                to_seconds(summary.max), result.failures);
    const bool offset_by_delay = summary.min >= sec(delay_s);
    std::printf("shape-check: min response >= injected delay: %s\n\n",
                offset_by_delay ? "OK (no timeout pattern)" : "VIOLATED");
  }

  std::printf(
      "## counterfactual: ElasticPress with a 1s timeout, 3s injected "
      "delay\n");
  const auto fixed = run_wordpress_with_delay(sec(3), true, kRequests);
  const auto summary = workload::summarize(fixed.latencies);
  std::printf("%s", workload::format_cdf(fixed.latencies, 10).c_str());
  std::printf(
      "max=%.3fs — responses bounded by the timeout, CDF no longer offset\n",
      to_seconds(summary.max));
  return 0;
}
