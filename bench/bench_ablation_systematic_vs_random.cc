// Ablation: systematic (Gremlin) vs randomized (Chaos-Monkey-style) fault
// injection.
//
// Setup: a binary-tree application (7 services) where every dependency
// call has a fallback EXCEPT one edge (svc0 -> svc2). Only a failure
// of svc2 produces user-visible errors — the kind of latent bug Table 1's
// postmortems describe.
//
// Gremlin's systematic sweep crashes one service at a time with scoped
// test traffic and checks user-visible health after each, finding the bug
// in at most #services targeted experiments, deterministically. The
// randomized baseline kills random services under background load until a
// user-visible failure happens to coincide; we report the distribution of
// kills needed over many seeds.
//
// This quantifies the paper's qualitative argument (Section 8.1): faults
// that cannot be constrained to a subset of requests or services make it
// expensive to zero in on implementation bugs.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "baseline/chaos.h"
#include "campaign/runner.h"

namespace {

using namespace gremlin;  // NOLINT

// The buggy app (one missing fallback, svc0 -> svc2) as a campaign spec:
// every probe instantiates it into a private Simulation.
const campaign::AppSpec& buggy_app() {
  static const campaign::AppSpec app = campaign::AppSpec::buggy_tree();
  return app;
}

struct RandomOutcome {
  size_t kills = 0;
  bool found = false;
};

RandomOutcome random_probe(uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.seed = seed;
  sim::Simulation sim(cfg);
  auto graph = buggy_app().instantiate(&sim);

  baseline::ChaosOptions options;
  options.seed = seed * 7919 + 17;
  options.mean_interval = msec(500);
  options.outage_duration = msec(300);
  // Chaos may kill any of the 7 services (it does not know where the bug
  // is); leaf and internal kills are equally likely.
  // Neither tester may kill the user-facing root itself (any root kill is
  // trivially user-visible and says nothing about failure handling).
  options.candidates = graph.services();
  for (const char* excluded : {"user", "svc0"}) {
    options.candidates.erase(
        std::remove(options.candidates.begin(), options.candidates.end(),
                    excluded),
        options.candidates.end());
  }
  baseline::ChaosMonkey chaos(&sim, graph, options);
  chaos.unleash(sec(60));

  // Background traffic throughout the chaos run.
  auto first_failure_at = std::make_shared<TimePoint>(TimePoint::min());
  for (int i = 0; i < 1200; ++i) {
    sim.schedule(msec(50) * i, [&sim, i, first_failure_at] {
      sim.inject("user", "svc0",
                 sim::SimRequest{.request_id = "bg-" + std::to_string(i)},
                 [&sim, first_failure_at](const sim::SimResponse& resp) {
                   if (resp.failed() &&
                       *first_failure_at == TimePoint::min()) {
                     *first_failure_at = sim.now();
                   }
                 });
    });
  }
  sim.run();

  RandomOutcome outcome;
  if (*first_failure_at == TimePoint::min()) {
    outcome.kills = chaos.events().size();
    return outcome;  // never surfaced within the horizon
  }
  outcome.found = true;
  for (const auto& event : chaos.events()) {
    if (event.at <= *first_failure_at) ++outcome.kills;
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf(
      "# Ablation — systematic Gremlin sweep vs randomized chaos\n"
      "# bug: svc0 has no failure handling for svc2 (7-service tree)\n\n");

  // --- systematic sweep (campaign engine) ---
  // generate_sweep enumerates one crash experiment per service, excluding
  // the user-facing front door (the same exclusion the hand-rolled loop
  // applied); the runner executes them on all cores, deterministically.
  campaign::SweepOptions sweep;
  sweep.kinds = {control::FailureSpec::Kind::kCrash};
  sweep.load.count = 20;
  sweep.load.gap = msec(10);
  sweep.seed = 42;
  const auto experiments =
      campaign::generate_sweep(buggy_app(), buggy_app().probe_graph(), sweep);
  const auto result = campaign::CampaignRunner().run(experiments);

  std::string culprit;
  size_t first_hit = experiments.size();
  for (size_t i = 0; i < result.experiments.size(); ++i) {
    if (!result.experiments[i].passed()) {
      culprit = result.experiments[i].id;
      first_hit = i + 1;
      break;
    }
  }
  std::printf(
      "systematic: bug exposed by %s — experiment %zu of %zu targeted "
      "experiments (deterministic; whole sweep ran in %.0fms on %d "
      "threads)\n",
      culprit.c_str(), first_hit, experiments.size(),
      to_seconds(result.wall_clock) * 1e3, result.threads);

  // --- randomized baseline over many seeds ---
  std::vector<size_t> kills_needed;
  size_t misses = 0;
  const int kSeeds = 30;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto outcome = random_probe(static_cast<uint64_t>(seed));
    if (outcome.found) {
      kills_needed.push_back(outcome.kills);
    } else {
      ++misses;
    }
  }
  if (!kills_needed.empty()) {
    std::sort(kills_needed.begin(), kills_needed.end());
    size_t total = 0;
    for (const size_t k : kills_needed) total += k;
    std::printf(
        "randomized: bug surfaced in %zu/%d seeds; kills needed: "
        "mean=%.1f median=%zu max=%zu (plus %zu seeds never surfaced it "
        "in 60s)\n",
        kills_needed.size(), kSeeds,
        static_cast<double>(total) / kills_needed.size(),
        kills_needed[kills_needed.size() / 2], kills_needed.back(), misses);
  } else {
    std::printf("randomized: bug never surfaced in %d seeds\n", kSeeds);
  }
  std::printf(
      "\nshape-check: systematic localizes the bug (names the culprit "
      "service); random only reports that *something* failed, after more "
      "fault actions on average.\n");
  return 0;
}
