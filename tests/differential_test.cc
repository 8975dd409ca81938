// The determinism contract: fingerprint() and verdict_fingerprint() depend
// on the experiment, never on how the engine ran it. Each seeded campaign
// case (app, sweep over the full fault vocabulary, checks, load) runs
// one-thread, cold, snapshot-free, heap-scheduler references with early
// exit off (R_off) and on (R_on); every other mode vector must match the
// reference with its early-exit setting byte for byte, and R_off's
// verdicts. A second test does the same for run_search. The base seed is
// --gtest_random_seed, else kFixedSeed; draws are stratified so the
// coverage tally holds for any seed.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/process_pool.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "search/search.h"

namespace gremlin::campaign {
namespace {

using control::FailureSpec;
using faults::DelayDistribution;
using Kind = FailureSpec::Kind;

constexpr uint64_t kFixedSeed = 20160627;
constexpr size_t kCampaignCases = 80;
constexpr size_t kSearchCases = 6;
// The nine kinds generate_sweep enumerates.
constexpr std::array<Kind, 9> kSweepKinds = {
    Kind::kAbort,         Kind::kDelay,            Kind::kDisconnect,
    Kind::kCrash,         Kind::kOverload,         Kind::kHang,
    Kind::kInstanceCrash, Kind::kRollingPartition, Kind::kSlowNode};
constexpr std::array<int, 4> kThreads = {1, 2, 4, 8};

uint64_t base_seed() {
  const int32_t flag = ::testing::GTEST_FLAG(random_seed);
  return flag != 0 ? static_cast<uint64_t>(flag) : kFixedSeed;
}

// One execution-mode vector; searches read threads, procs, warm and
// early_exit only.
struct Modes {
  int threads = 1;  // 0 = RunnerOptions' default (hardware concurrency)
  int procs = 1;
  bool warm = false;
  bool snapshots = false;
  bool early_exit = false;
  bool wheel = false;

  RunnerOptions options() const {
    return RunnerOptions{.threads = threads,
                         .procs = procs,
                         .early_exit = early_exit,
                         .warm_worlds = warm,
                         .use_timer_wheel = wheel,
                         .use_snapshots = snapshots};
  }

  std::string describe() const {
    std::ostringstream out;
    out << "threads=" << threads << " procs=" << procs << " warm=" << warm
        << " snapshots=" << snapshots << " early_exit=" << early_exit
        << " wheel=" << wheel;
    return out.str();
  }
};

constexpr Modes kOff{};
constexpr Modes kOn{.early_exit = true};

int draw(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform(lo, hi));
}
Duration draw_ms(Rng& rng, int lo, int hi) { return msec(draw(rng, lo, hi)); }

// Picks 0-4 run the default handler everywhere, so snapshots apply.
AppSpec draw_app(uint64_t pick, Rng& rng) {
  switch (pick) {
    case 0: {
      const int tiers = draw(rng, 2, 3);
      const int width = draw(rng, 2, 5);
      const uint64_t seed = rng.next_below(1000);
      return AppSpec::mega(tiers, width, seed, draw(rng, 1, 3));
    }
    case 1: {
      const int services = draw(rng, 6, 13);
      return AppSpec::mega_dag(services, 3, rng.next_below(1000));
    }
    case 2: return AppSpec::buggy_tree();
    case 3: {
      // Replicated services make round-robin instance selection matter.
      apps::TreeOptions options;
      options.depth = draw(rng, 2, 3);
      options.instances_per_service = draw(rng, 1, 3);
      return AppSpec::tree(options);
    }
    case 4: {
      const int retries = draw(rng, 0, 3);
      return AppSpec::quickstart(retries, draw_ms(rng, 30, 300));
    }
    case 5: return AppSpec::redundant();
    case 6: return AppSpec::warmcache();
    case 7: return AppSpec::enterprise();
    default: return AppSpec::wordpress();
  }
}

struct CampaignCase {
  uint64_t seed = 0;
  size_t slot = 0;
  std::string app;
  std::vector<Experiment> experiments;
  std::vector<Modes> vectors;  // besides the two references
};

// The slot fixes the strata: every fourth case is a snapshot case (a
// windowed sweep on a default-handler app whose first drawn vector runs
// two shards with snapshots on), the sweep's first kind rotates through
// all nine, delay specs alternate between uniform and empirical
// distributions, thread counts rotate, and every fourth case has one
// all-off vector.
CampaignCase draw_campaign_case(uint64_t seed, size_t slot) {
  Rng rng(seed);
  const bool snapshot_case = slot % 4 == 0;
  const AppSpec app = draw_app(rng.next_below(snapshot_case ? 5 : 9), rng);
  const topology::AppGraph graph = app.probe_graph();

  SweepOptions sweep;
  size_t first = slot % kSweepKinds.size();
  // InstanceCrash schedules its outage at apply time: never snapshotted.
  if (snapshot_case && kSweepKinds[first] == Kind::kInstanceCrash) ++first;
  sweep.kinds = {kSweepKinds[first]};
  for (size_t k = 0; k < kSweepKinds.size(); ++k) {
    if (k != first && rng.bernoulli(0.3)) sweep.kinds.push_back(kSweepKinds[k]);
  }
  sweep.seed = rng.next_below(1000000);
  sweep.load.count = static_cast<size_t>(draw(rng, 10, 40));
  sweep.load.gap = draw_ms(rng, 1, 10);
  sweep.delay = draw_ms(rng, 20, 200);
  sweep.hang = draw_ms(rng, 200, 2000);
  sweep.crash_after = draw_ms(rng, 0, 60);
  sweep.crash_downtime = draw_ms(rng, 20, 200);
  if (slot % 3 == 1 || rng.bernoulli(0.2)) {
    sweep.probabilities = {0.25 * draw(rng, 1, 3)};
    if (rng.bernoulli(0.5)) sweep.probabilities.push_back(0.9);
  }
  if (snapshot_case || rng.bernoulli(0.3)) {
    const Duration after = draw_ms(rng, 5, 65);
    sweep.windows.push_back(
        {after, rng.bernoulli(0.5) ? Duration{} : draw_ms(rng, 20, 80)});
  }

  const std::string target =
      load_target(graph, sweep.client, sweep.target, sweep.exclude);
  sweep.checks = {CheckSpec::max_user_failures(draw(rng, 0, 3))};
  if (rng.bernoulli(0.3)) {  // Table 3's record checks on the load target
    const std::string& client = sweep.client;
    sweep.checks.insert(
        sweep.checks.end(),
        {CheckSpec::has_timeouts(target, draw_ms(rng, 100, 1000)),
         CheckSpec::error_rate_below(client, target, 0.5),
         CheckSpec::has_bounded_retries(client, target, draw(rng, 1, 5))});
  }
  if (slot % 5 == 2 || rng.bernoulli(0.1)) {
    const std::vector<std::string> services = graph.services();
    sweep.checks.push_back(CheckSpec::failure_contained(
        services[rng.next_below(services.size())]));
  }

  CampaignCase c{.seed = seed, .slot = slot, .app = app.name};
  c.experiments = generate_sweep(app, graph, sweep);
  // At most 12 experiments, in sweep order; replication doubles six.
  const bool replicate = rng.bernoulli(0.3);
  const size_t keep = replicate ? 6 : 12;
  if (c.experiments.size() > keep) c.experiments.resize(keep);
  size_t delays = 0;
  for (Experiment& e : c.experiments) {
    for (FailureSpec& spec : e.failures) {
      if (spec.kind != Kind::kDelay || delays++ % 2 != 0) continue;
      spec.delay_distribution = (slot / kSweepKinds.size()) % 2 == 0
                                    ? DelayDistribution::kUniform
                                    : DelayDistribution::kEmpirical;
      spec.delay_min = draw_ms(rng, 1, 20);
      spec.delay_max = spec.delay_min + draw_ms(rng, 1, 80);
      spec.delay_values = {spec.delay_min, spec.delay_max, msec(120)};
    }
  }
  if (replicate) {
    c.experiments = replicate_seeds(
        c.experiments, {rng.next_below(1000000), rng.next_below(1000000)});
  }

  // RunnerOptions{} first, then three drawn vectors.
  c.vectors = {Modes{.threads = 0, .warm = true, .snapshots = true,
                     .early_exit = true, .wheel = true}};
  for (size_t v = 0; v < 3; ++v) {
    Modes m{.threads = kThreads[(slot + v) % kThreads.size()],
            .procs = rng.bernoulli(0.25) ? 2 : 1,
            .warm = rng.bernoulli(0.5),
            .snapshots = rng.bernoulli(0.5),
            .early_exit = rng.bernoulli(0.5),
            .wheel = rng.bernoulli(0.5)};
    if (snapshot_case && v == 0) {
      m.threads = (slot / 4) % 2 == 0 ? 1 : 2;
      m.procs = 2;
      m.warm = m.snapshots = true;
    } else if (slot % 4 == 3 && v == 1) {
      m.warm = m.snapshots = m.early_exit = m.wheel = false;
    }
    c.vectors.push_back(m);
  }
  return c;
}

// Fails unless `got` matches `want` (byte for byte, or verdicts only),
// naming the first experiment that differs. It carries one fault, so it is
// already a minimal reproducer.
void expect_same(const CampaignCase& c, const Modes& modes,
                 const char* reference, const CampaignResult& got,
                 const CampaignResult& want, bool verdicts_only) {
  const auto digest = verdicts_only ? &ExperimentResult::verdict_fingerprint
                                    : &ExperimentResult::fingerprint;
  for (size_t i = 0; i < c.experiments.size(); ++i) {
    const std::string a = (got.experiments.at(i).*digest)();
    const std::string b = (want.experiments.at(i).*digest)();
    if (a == b) continue;
    const Experiment& e = c.experiments[i];
    std::ostringstream out;
    out << (verdicts_only ? "verdicts" : "fingerprint") << " differ from "
        << reference << "\n  base seed " << base_seed() << ", case "
        << c.slot << " (seed " << c.seed << "), app " << c.app
        << "\n  modes: " << modes.describe() << "\n  experiment #" << i
        << ": " << e.id << "\n  faults:";
    for (const FailureSpec& f : e.failures) out << ' ' << search::describe(f);
    out << "\n  load: " << e.load.count << " requests every "
        << format_duration(e.load.gap) << "\n  checks:";
    for (const auto& check : want.experiments[i].checks) {
      out << ' ' << check.name;
    }
    out << "\n  seed: " << e.seed << "\n  got:  " << a.substr(0, 400)
        << "\n  want: " << b.substr(0, 400);
    ADD_FAILURE() << out.str();
    return;
  }
}

// What the runs exercised: mode values ("warm=1"), verdicts, check kinds,
// execution paths, fault kinds and axes.
using Coverage = std::set<std::string>;

void note(const Modes& m, const CampaignResult& result, Coverage* seen) {
  std::istringstream values(m.describe());
  for (std::string value; values >> value;) seen->insert(value);
  for (const ExperimentResult& r : result.experiments) {
    EXPECT_TRUE(m.early_exit || !r.early_terminated)
        << r.id << " stopped early with " << m.describe();
    seen->insert(r.passed() ? "pass" : "fail");
    if (r.early_terminated) seen->insert("early exit");
    if (result.procs == 2 && r.snapshot_path == 2) seen->insert("shard hit");
    for (const auto& check : r.checks) {
      seen->insert(check.name.substr(0, check.name.find('(')));
    }
  }
}

void run_campaign_case(const CampaignCase& c, Coverage* seen) {
  const CampaignResult off = CampaignRunner(kOff.options()).run(c.experiments);
  const CampaignResult on = CampaignRunner(kOn.options()).run(c.experiments);
  expect_same(c, kOn, "R_off", on, off, /*verdicts_only=*/true);
  note(kOff, off, seen);
  note(kOn, on, seen);
  for (const Experiment& e : c.experiments) {
    for (const FailureSpec& spec : e.failures) {
      seen->insert(spec.kind_name());
      seen->insert(faults::to_string(spec.delay_distribution));
      if (spec.probability < 1.0) seen->insert("probability");
      if (spec.after > kDurationZero) seen->insert("window");
    }
  }

  for (const Modes& m : c.vectors) {
    const CampaignResult run = CampaignRunner(m.options()).run(c.experiments);
    note(m, run, seen);
    const bool sharded =
        m.procs > 1 && c.experiments.size() > 1 && multiproc_available();
    EXPECT_EQ(run.procs, sharded ? m.procs : 1) << m.describe();
    EXPECT_TRUE(m.threads == 0 || run.threads == m.threads) << m.describe();
    expect_same(c, m, m.early_exit ? "R_on" : "R_off", run,
                m.early_exit ? on : off, /*verdicts_only=*/false);
    expect_same(c, m, "R_off", run, off, /*verdicts_only=*/true);
  }
}

TEST(DifferentialTest, CampaignModesMatchTheReference) {
  Rng seeds(base_seed());
  Coverage seen;
  for (size_t slot = 0; slot < kCampaignCases; ++slot) {
    run_campaign_case(draw_campaign_case(seeds.next_u64(), slot), &seen);
    if (HasFailure()) return;  // one case's report is enough to replay
  }
  std::vector<std::string> required = {
      "threads=0",   "threads=1",   "threads=2",    "threads=4",
      "threads=8",   "procs=1",     "warm=0",       "warm=1",
      "snapshots=0", "snapshots=1", "early_exit=0", "early_exit=1",
      "wheel=0",     "wheel=1",     "early exit",   "pass",
      "fail",        "probability", "window",       "uniform",
      "empirical",   "FailureContained"};
  if (multiproc_available()) {
    // A snapshot hit inside a forked shard: snapshot stats ride the codec.
    required.insert(required.end(), {"procs=2", "shard hit"});
  }
  for (const Kind kind : kSweepKinds) {
    required.push_back(FailureSpec{.kind = kind}.kind_name());
  }
  for (const std::string& feature : required) {
    EXPECT_EQ(seen.count(feature), 1u) << "never exercised: " << feature;
  }
}

// The funnel and every finding, one line each.
std::string digest(const search::SearchOutcome& o) {
  std::ostringstream out;
  out << "ok=" << o.ok << o.error << " generated=" << o.generated
      << " pruned=" << o.pruned << " ran=" << o.ran << " passed=" << o.passed
      << " failed=" << o.failed << " errors=" << o.errors
      << " baseline_requests=" << o.baseline_requests
      << " edges=" << o.observed_edges << " paths=" << o.observed_paths;
  for (const search::Finding& f : o.findings) {
    out << '\n' << f.minimal << " | " << f.signature << " | occurrences="
        << f.occurrences << " flaky=" << f.flaky
        << " shrink_runs=" << f.shrink_runs;
  }
  return out.str();
}

// Rotates redundant, warmcache with probabilistic kinds, and mega:2xW.
TEST(DifferentialTest, SearchModesMatchTheReference) {
  Rng seeds(base_seed() ^ 0x5ea5c4ULL);
  size_t findings = 0;
  for (size_t slot = 0; slot < kSearchCases; ++slot) {
    const uint64_t seed = seeds.next_u64();
    Rng rng(seed);
    search::SearchOptions options;
    options.seed = rng.next_below(1000000);
    options.load.count = static_cast<size_t>(draw(rng, 10, 40));
    options.load.gap = draw_ms(rng, 1, 10);
    std::vector<Kind>& kinds = options.generator.kinds = {Kind::kAbort};
    for (const Kind k : {Kind::kDelay, Kind::kDisconnect, Kind::kCrash}) {
      if (rng.bernoulli(0.5)) kinds.push_back(k);
    }
    AppSpec app = AppSpec::redundant();
    if (slot % 3 == 1) {
      app = AppSpec::warmcache();
      options.generator.probability = 0.25 * draw(rng, 1, 3);
    } else if (slot % 3 == 2) {
      app = AppSpec::mega(2, draw(rng, 2, 4));
    }
    const auto run = [&](const Modes& m) {
      search::SearchOptions o = options;
      o.threads = m.threads;
      o.procs = m.procs;
      o.warm = m.warm;
      o.early_exit = m.early_exit;
      return search::run_search(app, o);
    };

    const search::SearchOutcome reference = run(kOff);
    ASSERT_TRUE(reference.ok) << app.name << ": " << reference.error;
    findings += reference.findings.size();
    for (size_t v = 0; v < 2; ++v) {
      const Modes m{.threads = kThreads[(slot + 2 * v) % kThreads.size()],
                    .procs = rng.bernoulli(0.3) ? 2 : 1,
                    .warm = v == 0 || rng.bernoulli(0.5),
                    .early_exit = v == 0 || rng.bernoulli(0.5)};
      EXPECT_EQ(digest(run(m)), digest(reference))
          << "base seed " << base_seed() << ", search case " << slot
          << " (seed " << seed << "), app " << app.name << ", modes "
          << m.describe();
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(findings, 0u);
}

}  // namespace
}  // namespace gremlin::campaign
