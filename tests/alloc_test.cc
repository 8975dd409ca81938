// Allocation gate for the warm-world steady state.
//
// One long-lived world is deep-reset between experiments, and every
// data-plane object (contexts, outbound calls, event nodes, log slots)
// comes from pools the world retains. An experiment's marginal heap traffic
// is therefore only its result materialization. A change that reintroduces
// per-request allocations shows up as hundreds per experiment, far over the
// limit below.
//
// The binary replaces the global allocation functions to count calls, so it
// is its own test executable. Sanitizers bring their own allocators, so
// tests/CMakeLists.txt registers it only in plain builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "campaign/warm_world.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaced form allocates with malloc and frees with free, so each
// new/delete pair matches whichever form the caller uses.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gremlin::campaign {
namespace {

constexpr double kWarmAllocLimit = 10.0;

TEST(AllocTest, WarmWorldSteadyStateStaysUnderTheLimit) {
  const AppSpec app = AppSpec::buggy_tree(4);
  SweepOptions options;
  options.load.count = 40;
  options.load.gap = msec(5);
  const auto experiments = generate_sweep(app, app.probe_graph(), options);
  ASSERT_FALSE(experiments.empty());

  WarmWorld world(app);
  ExecOptions exec;
  exec.keep_latencies = false;  // the large-sweep configuration
  // Warm-up: visit every experiment once so pools, the rule cache,
  // interning and index buckets reach their peak footprint.
  for (const auto& e : experiments) (void)world.run(e, exec);

  constexpr size_t kRuns = 100;
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kRuns; ++i) {
    (void)world.run(experiments[i % experiments.size()], exec);
  }
  const double per_experiment =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before) /
      kRuns;
  RecordProperty("allocations_per_experiment",
                 std::to_string(per_experiment));
  EXPECT_LE(per_experiment, kWarmAllocLimit)
      << "warm-world steady state allocates " << per_experiment
      << " times per experiment";
}

// The counter sees the engine's allocations: a cold run builds a whole
// deployment (about 400 allocations on this app), so it counts far more than
// the warm limit. Without this the gate above would pass if the replacement
// were never linked in.
TEST(AllocTest, CounterSeesColdRuns) {
  const AppSpec app = AppSpec::buggy_tree(4);
  SweepOptions options;
  options.load.count = 40;
  const auto experiments = generate_sweep(app, app.probe_graph(), options);
  ASSERT_FALSE(experiments.empty());
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  (void)CampaignRunner::run_one(experiments.front());
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed) - before,
            static_cast<size_t>(10 * kWarmAllocLimit));
}

}  // namespace
}  // namespace gremlin::campaign
