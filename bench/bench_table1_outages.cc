// Table 1: recreations of five real-world outages as Gremlin recipes.
//
// Each outage is modelled twice: with the failure-handling bug the
// postmortem identified (naive) and with the recommended resiliency
// patterns applied (resilient). A Gremlin recipe — failure scenario, test
// load, assertions — runs against both. The paper's claim: systematic
// recipes diagnose the missing pattern *before* the outage; so the naive
// variant must fail at least one assertion and the resilient variant must
// pass all of them.
#include <cstdio>

#include "apps/outages.h"

int main() {
  using namespace gremlin;  // NOLINT

  std::printf(
      "# Table 1 — real outages recreated as Gremlin recipes\n"
      "# naive = as the postmortem describes; resilient = patterns "
      "applied\n\n");

  bool all_expected = true;
  for (const auto& outage : apps::table1_cases()) {
    std::printf("=== %s — %s ===\n", outage.id.c_str(),
                outage.summary.c_str());
    for (const bool resilient : {false, true}) {
      const auto results = apps::run_outage_case(outage, resilient);
      size_t passed = 0;
      for (const auto& r : results) {
        if (r.passed) ++passed;
      }
      std::printf("  [%s] %zu/%zu assertions passed\n",
                  resilient ? "resilient" : "naive    ", passed,
                  results.size());
      for (const auto& r : results) {
        std::printf("    %s %s — %s\n", r.passed ? "[PASS]" : "[FAIL]",
                    r.name.c_str(), r.detail.c_str());
      }
      const bool expected =
          resilient ? passed == results.size() : passed < results.size();
      if (!expected) {
        all_expected = false;
        std::printf("    !! unexpected outcome for this variant\n");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "shape-check: every naive variant diagnosed, every resilient "
      "variant clean: %s\n",
      all_expected ? "OK" : "VIOLATED");
  return all_expected ? 0 : 1;
}
