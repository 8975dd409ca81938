// Workload definitions and the untraced end-to-end run.
//
// The untraced run measures what a `gremlin campaign|search --report` user
// waits for: CampaignRunner::run (or search::run_search) plus building the
// report and its JSON, at threads = 2 and procs = 1, every execution mode
// at its default. One warm-up batch, then whole batches until the time
// budget is spent; each metric is the median over the timed batches.
#include <algorithm>

#include "bench.h"
#include "control/checker.h"
#include "report/campaign_report.h"
#include "report/search_report.h"

namespace perfbench {

namespace {

using gremlin::msec;
using gremlin::control::FailureSpec;
using Kind = gremlin::control::FailureSpec::Kind;

constexpr int kThreads = 2;

// The eight fault kinds of `gremlin campaign --sweep all`.
std::vector<Kind> all_kinds() {
  return {Kind::kAbort,         Kind::kDelay,
          Kind::kOverload,      Kind::kCrash,
          Kind::kDisconnect,    Kind::kInstanceCrash,
          Kind::kRollingPartition, Kind::kSlowNode};
}

// tree-assert: the depth-4 buggy tree (15 services, svc0 -> svc2 has no
// timeout and no fallback), all eight fault kinds, replicated over
// consecutive seeds. Every experiment carries the paper's Table 3
// record-consuming checks; odd seeds add FailureContained, which has no
// online form and so forces the post-hoc path for that experiment.
Inputs tree_assert(uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Inputs in;
  in.title = "tree-assert";
  const campaign::AppSpec app = campaign::AppSpec::buggy_tree(tiny ? 3 : 4);
  const gremlin::topology::AppGraph graph = app.probe_graph();
  campaign::SweepOptions sweep;
  sweep.kinds = all_kinds();
  sweep.load.count = tiny ? 5 : 20;
  const int replicas = tiny ? 2 : 48;
  for (int i = 0; i < replicas; ++i) {
    const uint64_t s = seed * 1000 + static_cast<uint64_t>(i);
    sweep.seed = s;
    sweep.checks = {
        campaign::CheckSpec::has_timeouts("svc0", msec(250)),
        campaign::CheckSpec::has_bounded_retries("svc0", "svc1", 3),
        campaign::CheckSpec::error_rate_below("svc0", "svc2", 0.5),
        campaign::CheckSpec::max_user_failures(0),
    };
    if (s % 2 == 1) {
      sweep.checks.push_back(campaign::CheckSpec::failure_contained("svc2"));
    }
    for (auto& e : campaign::generate_sweep(app, graph, sweep)) {
      e.id += " seed=" + std::to_string(s);
      in.experiments.push_back(std::move(e));
    }
  }
  return in;
}

// mega-mixed: the generated mega:4x8 topology (33 services), edge and
// service sweep; every fault runs once active from t=0 and once activating
// at 800 ms of the 1 s load. Only the CLI default check, so the runner
// switches record capture off and stops each run at its verdict.
Inputs mega_mixed(uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Inputs in;
  in.title = "mega-mixed";
  auto app = campaign::AppSpec::named(tiny ? "mega:2x3" : "mega:4x8");
  const gremlin::topology::AppGraph graph = app.value().probe_graph();
  campaign::SweepOptions sweep;
  sweep.seed = seed;
  sweep.windows = {{gremlin::kDurationZero, gremlin::kDurationZero},
                   {msec(800), gremlin::kDurationZero}};
  if (tiny) sweep.load.count = 20;
  in.experiments = campaign::generate_sweep(app.value(), graph, sweep);
  return in;
}

// search-k2: `gremlin search --app mega:2x6` with k <= 2, pruning and
// shrinking on.
Inputs search_k2(uint64_t seed, Size size, int threads) {
  const bool tiny = size == Size::kTiny;
  Inputs in;
  in.is_search = true;
  in.title = "search-k2";
  in.app = campaign::AppSpec::named(tiny ? "mega:2x2" : "mega:2x6").value();
  in.search_options.seed = seed;
  in.search_options.threads = threads;
  in.search_options.generator.max_k = 2;
  if (tiny) in.search_options.load.count = 20;
  return in;
}

struct Batch {
  double wall = 0;
  double cpu = 0;
  uint64_t experiments = 0;
  uint64_t not_ok = 0;  // experiments with ok == false
  std::map<std::string, uint64_t> counts;
  std::map<std::string, std::string> digests;
  campaign::CampaignResult campaign;  // campaign workloads
  search::SearchOutcome search;       // search-k2
};

Batch run_campaign_batch(const Inputs& in) {
  campaign::RunnerOptions options;
  options.threads = kThreads;
  const campaign::CampaignRunner runner(options);
  Batch b;
  const double w0 = now_s();
  const double c0 = cpu_s();
  b.campaign = runner.run(in.experiments);
  const gremlin::report::CampaignReport rep =
      gremlin::report::build_campaign_report(b.campaign, in.title);
  const std::string json = rep.to_json().dump(2);
  b.wall = now_s() - w0;
  b.cpu = cpu_s() - c0;

  uint64_t requests = 0, rules = 0;
  for (const auto& r : b.campaign.experiments) {
    requests += r.requests;
    rules += r.rules_installed;
  }
  b.experiments = b.campaign.experiments.size();
  b.not_ok = b.campaign.errors();
  b.counts = {
      {"experiments", b.experiments},
      {"requests", requests},
      {"rules_installed", rules},
      {"early_terminated", rep.early_terminated},
      {"passed", rep.passed},
      {"failed", rep.failed},
      {"errors", rep.errors},
  };
  b.digests = {{"result_fingerprint", rep.result_fingerprint},
               {"verdict_fingerprint", fnv_hex(rep.verdict_fingerprint)}};
  return b;
}

Batch run_search_batch(const Inputs& in) {
  Batch b;
  const double w0 = now_s();
  const double c0 = cpu_s();
  b.search = search::run_search(in.app, in.search_options);
  const gremlin::report::SearchReport rep =
      gremlin::report::build_search_report(b.search, in.app.name);
  const std::string json = rep.to_json().dump(2);
  b.wall = now_s() - w0;
  b.cpu = cpu_s() - c0;

  b.experiments = 1 + b.search.ran + b.search.shrink_runs;
  b.not_ok = b.search.ok ? b.search.errors : b.experiments;
  b.counts = search_funnel(b.search);
  b.counts["experiments"] = b.experiments;
  b.digests = {{"findings", search_findings_digest(b.search)}};
  return b;
}

Batch run_batch(const Inputs& in) {
  return in.is_search ? run_search_batch(in) : run_campaign_batch(in);
}

// One block of the set-up measurement: the mean time of repeated identical
// constructions over at least 0.1 s, so that sub-millisecond set-ups still
// read steadily. The untraced run interleaves one block before every batch
// and reports the median, which spreads the measurement over the whole run.
double setup_block(const std::string& workload, uint64_t seed, Size size) {
  constexpr double kBlockSeconds = 0.1;
  int reps = 0;
  const double t0 = now_s();
  double elapsed = 0;
  do {
    const Inputs in = make_inputs(workload, seed, size, kThreads);
    ++reps;
    elapsed = now_s() - t0;
  } while (elapsed < kBlockSeconds || reps < 3);
  return elapsed / reps;
}

// Replays a fixed sample of a campaign batch's experiments one at a time on
// fresh simulations and requires byte-identical results: the parallel,
// warm-world, snapshot paths of the batch against the plain cold path.
void cross_check_campaign(const Inputs& in, const Batch& batch,
                          Outcome* out) {
  const size_t n = in.experiments.size();
  const size_t stride = std::max<size_t>(1, n / 48);
  size_t mismatches = 0, checked = 0;
  for (size_t i = 0; i < n; i += stride) {
    const campaign::ExperimentResult cold =
        campaign::CampaignRunner::run_one(in.experiments[i],
                                          campaign::ExecOptions{});
    ++checked;
    if (cold.fingerprint() != batch.campaign.experiments[i].fingerprint()) {
      ++mismatches;
      if (mismatches == 1) {
        out->problems.push_back("cold replay differs from the batch for '" +
                                in.experiments[i].id + "'");
      }
    }
  }
  out->counts["cross_checked"] = checked;
  if (mismatches > 0) out->failed += batch.experiments;
}

// Every reported minimal reproducer must fail again with its signature on a
// fresh simulation, and (when the shrink budget was not exhausted) dropping
// any one of its faults must not reproduce that failure.
void cross_check_search(const Inputs& in, const Batch& batch, Outcome* out) {
  const search::SearchOptions& options = in.search_options;
  const std::string target =
      resolve_target(in.app.probe_graph(), options);
  campaign::ExecOptions exec;
  exec.keep_latencies = false;
  auto reproduces = [&](const search::Finding& f,
                        std::vector<FailureSpec> faults) {
    campaign::Experiment e =
        search_experiment(in.app, options, target, f.minimal, faults);
    e.load.count = f.load_count;
    const campaign::ExperimentResult r =
        campaign::CampaignRunner::run_one(e, exec);
    return r.ok && !r.passed() &&
           gremlin::control::failure_signature(r.checks) == f.signature;
  };
  size_t bad = 0, checked = 0;
  for (const auto& f : batch.search.findings) {
    if (f.flaky) continue;
    ++checked;
    bool good = reproduces(f, f.faults);
    if (good && f.shrink_runs < options.shrink_options.max_runs &&
        f.faults.size() > 1) {
      for (size_t drop = 0; drop < f.faults.size(); ++drop) {
        std::vector<FailureSpec> smaller = f.faults;
        smaller.erase(smaller.begin() + static_cast<long>(drop));
        if (reproduces(f, smaller)) good = false;
      }
    }
    if (!good) {
      ++bad;
      if (bad == 1) {
        out->problems.push_back("reproducer '" + f.minimal +
                                "' does not replay as a minimal failure");
      }
    }
  }
  out->counts["cross_checked"] = checked;
  if (bad > 0) out->failed += batch.experiments;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "tree-assert" || name == "mega-mixed" ||
         name == "search-k2";
}

Inputs make_inputs(const std::string& workload, uint64_t seed, Size size,
                   int threads) {
  if (workload == "tree-assert") return tree_assert(seed, size);
  if (workload == "mega-mixed") return mega_mixed(seed, size);
  return search_k2(seed, size, threads);
}

Outcome run_untraced(const std::string& workload, uint64_t seed, Size size,
                     double seconds) {
  Outcome out;
  std::vector<double> setups = {setup_block(workload, seed, size)};
  const Inputs in = make_inputs(workload, seed, size, kThreads);

  // Warm-up batch: fills allocator pools and lazy tables; its counts and
  // digests are the reference every timed batch must repeat exactly.
  const Batch first = run_batch(in);
  out.attempted += first.experiments;
  out.failed += first.not_ok;
  out.counts = first.counts;
  out.digests = first.digests;

  std::vector<double> walls, cpus;
  const double start = now_s();
  while (walls.size() < 3 || now_s() - start < seconds) {
    setups.push_back(setup_block(workload, seed, size));
    const Batch b = run_batch(in);
    walls.push_back(b.wall);
    cpus.push_back(b.cpu);
    out.attempted += b.experiments;
    if (b.counts != first.counts || b.digests != first.digests) {
      out.failed += b.experiments;
      out.problems.push_back("batch " + std::to_string(walls.size()) +
                             " differs from the first: nondeterministic");
    } else {
      out.failed += b.not_ok;
    }
  }
  out.counts["timed_batches"] = walls.size();
  out.batch_walls = walls;

  if (in.is_search) {
    cross_check_search(in, first, &out);
  } else {
    cross_check_campaign(in, first, &out);
  }

  const double wall = median(walls);
  out.metric("setup_s", median(setups), "s");
  out.metric("wall_s", wall, "s");
  out.metric("experiments_per_s",
             static_cast<double>(first.experiments) / wall, "1/s");
  out.metric("cpu_s", median(cpus), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
