// The traced per-layer run.
//
// Single-threaded. It first runs the workload untraced at threads = 1 (for
// per-experiment gaps, snapshot and early-exit counts) and at threads = 2
// (for the speed-up), then replays a fixed sample of the experiments as the
// chain of public calls a post-hoc experiment makes on one kept-alive world:
//
//   reset -> apply (per failure) -> run_load -> collect -> evaluate
//
// with a span around each call. Search is composed the same way from
// enumerate_fault_points, generate_combinations, run_baseline, decide,
// CampaignRunner::run and shrink. Spans stay in memory and are written as
// Chrome trace-event JSON at the end.
//
// Self-checks (any failure is reported as a problem and fails the run):
// the replayed post-hoc verdicts equal the untraced run's verdicts for the
// same experiments; online (incremental) and post-hoc checks over the same
// preserved log agree; the composed search equals run_search's funnel and
// findings.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "bench.h"
#include "control/checker.h"
#include "control/load_driver.h"
#include "control/online.h"
#include "control/recipe.h"
#include "logstore/store.h"
#include "report/campaign_report.h"
#include "report/search_report.h"
#include "sim/simulation.h"

namespace perfbench {

namespace {

using gremlin::Duration;
using gremlin::TimePoint;
namespace control = gremlin::control;
namespace sim = gremlin::sim;
namespace logstore = gremlin::logstore;

// In-memory span recorder. Times are seconds on the steady clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    double start = 0;
    double end = 0;
  };

  // RAII span; end() closes it early and returns its length in seconds.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, uint64_t parent) : t_(t) {
      index_ = t_->spans_.size();
      t_->spans_.push_back({std::move(name), t_->spans_.size() + 1, parent,
                            now_s(), 0});
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return t_->spans_[index_].id; }
    double end() {
      Span& s = t_->spans_[index_];
      if (s.end == 0) s.end = now_s();
      return s.end - s.start;
    }

   private:
    Tracer* t_;
    size_t index_;
  };

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const double origin = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string name;
      for (const char c : s.name) {
        if (c == '"' || c == '\\') name += '\\';
        name += c;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    (s.start - origin) * 1e6, (s.end - s.start) * 1e6);
      out << "{\"name\": \"" << name << "\", " << buf
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// Per-layer samples gathered by the replays.
struct Layers {
  std::vector<double> world_build_s, reset_s, apply_s, collect_s;
  std::vector<double> online_s, posthoc_s, call_graph_s;
  std::vector<double> snapshot_s, restore_s;
  double chain_s = 0;      // sum of the replayed post-hoc chains
  double run_load_s = 0;   // sum of run_load spans
  double append_s = 0;     // LogStore::append over every record copied
  uint64_t appended = 0;
  uint64_t events = 0;     // simulation events inside run_load
  uint64_t records = 0;    // records collected
  uint64_t replayed = 0;
};

// Untraced threads = 1 run of a campaign: gaps between on_result callbacks.
struct SerialRun {
  campaign::CampaignResult result;
  std::vector<double> gaps;  // seconds, experiment order
  double wall = 0;
};

SerialRun run_serial(const std::vector<campaign::Experiment>& experiments,
                     bool keep_latencies) {
  SerialRun run;
  run.gaps.reserve(experiments.size());
  double last = 0;
  campaign::RunnerOptions options;
  options.threads = 1;
  options.keep_latencies = keep_latencies;
  options.on_result = [&run, &last](const campaign::ExperimentResult&) {
    const double t = now_s();
    run.gaps.push_back(t - last);
    last = t;
  };
  last = now_s();
  const double t0 = last;
  run.result = campaign::CampaignRunner(options).run(experiments);
  run.wall = now_s() - t0;
  return run;
}

// Untraced threads = 2 run; returns its wall time.
double run_parallel(const std::vector<campaign::Experiment>& experiments,
                    campaign::CampaignResult* result) {
  campaign::RunnerOptions options;
  options.threads = 2;
  const double t0 = now_s();
  *result = campaign::CampaignRunner(options).run(experiments);
  return now_s() - t0;
}

// The runner's load-target rule: the first entry point other than the
// client, else the client's callee.
std::string load_target(const campaign::Experiment& e,
                        const gremlin::topology::AppGraph& graph) {
  if (!e.target.empty()) return e.target;
  for (const auto& entry : graph.entry_points()) {
    if (entry != e.client) return entry;
  }
  for (const auto& edge : graph.edges()) {
    if (edge.src == e.client) return edge.dst;
  }
  return {};
}

std::string verdicts(const std::vector<control::CheckResult>& checks) {
  std::string out;
  for (const auto& c : checks) {
    out += c.passed ? "P:" : "F:";
    out += c.name + ";";
  }
  return out;
}

std::vector<size_t> sample_indices(size_t n, size_t max_samples) {
  const size_t stride =
      std::max<size_t>(1, (n + max_samples - 1) / max_samples);
  std::vector<size_t> out;
  for (size_t i = 0; i < n; i += stride) out.push_back(i);
  return out;
}

// Replays experiments[indices] through the post-hoc chain on one kept-alive
// world and checks every verdict against `reference`.
void replay(const std::vector<campaign::Experiment>& experiments,
            const std::vector<size_t>& indices,
            const std::vector<campaign::ExperimentResult>& reference,
            Tracer* tracer, uint64_t parent, Layers* layers, Outcome* out) {
  if (indices.empty()) return;
  const campaign::Experiment& first = experiments[indices.front()];
  const campaign::AppSpec& app = first.app;

  // Cold world construction, timed on its own.
  for (size_t i = 0; i < std::min<size_t>(indices.size(), 24); ++i) {
    Tracer::Scope s(tracer, "campaign.world_build", parent);
    sim::SimulationConfig cfg;
    cfg.seed = first.seed;
    auto fresh = std::make_unique<sim::Simulation>(cfg);
    app.instantiate(fresh.get());
    layers->world_build_s.push_back(s.end());
  }

  sim::SimulationConfig cfg;
  cfg.seed = first.seed;
  sim::Simulation world(cfg);
  const gremlin::topology::AppGraph graph = app.instantiate(&world);

  size_t verdict_mismatch = 0, online_mismatch = 0;
  for (const size_t index : indices) {
    const campaign::Experiment& e = experiments[index];
    const campaign::ExperimentResult& ref = reference[index];
    control::LoadResult load;
    std::vector<control::CheckResult> posthoc;
    bool ok = true;
    {
      Tracer::Scope chain(tracer, "experiment " + e.id, parent);
      {
        Tracer::Scope s(tracer, "sim.reset", chain.id());
        world.reset(e.seed);
        layers->reset_s.push_back(s.end());
      }
      control::TestSession session(&world, &graph);
      for (const auto& spec : e.failures) {
        Tracer::Scope s(tracer, "control.apply", chain.id());
        ok = ok && session.apply(spec).ok();
        layers->apply_s.push_back(s.end());
      }
      const std::string target = load_target(e, graph);
      const uint64_t events_before = world.events_processed();
      {
        Tracer::Scope s(tracer, "control.run_load", chain.id());
        load = session.run_load(e.client, target, e.load);
        layers->run_load_s += s.end();
      }
      layers->events += world.events_processed() - events_before;
      {
        Tracer::Scope s(tracer, "control.collect", chain.id());
        ok = ok && session.collect().ok();
        layers->collect_s.push_back(s.end());
      }
      {
        Tracer::Scope s(tracer, "control.posthoc_check", chain.id());
        const control::AssertionChecker checker = session.checker();
        for (const auto& check : e.checks) {
          posthoc.push_back(check.evaluate(checker, load));
        }
        layers->posthoc_s.push_back(s.end());
      }
      layers->chain_s += chain.end();
    }
    ++layers->replayed;
    if (!ok || !ref.ok || verdicts(posthoc) != verdicts(ref.checks)) {
      if (++verdict_mismatch == 1) {
        out->problems.push_back("replayed verdicts differ for '" + e.id + "'");
      }
    }

    const logstore::LogStore& store = world.log_store();
    layers->records += store.size();

    // Online machines over the same preserved log, in query order.
    {
      Tracer::Scope s(tracer, "control.online_check", parent);
      control::OnlineChecker online;
      for (const auto& check : e.checks) {
        online.add(check.incremental(&graph, e.load.count));
      }
      if (online.wants_records()) {
        logstore::Query all;
        all.any_kind = true;
        store.for_each(all, [&online](const logstore::LogRecord& r) {
          online.offer(r);
        });
      }
      for (size_t i = 0; i < load.failures; ++i) online.on_user_response(true);
      for (size_t i = load.failures; i < load.completed; ++i) {
        online.on_user_response(false);
      }
      const control::LoadSummary summary{load.total(), load.failures};
      for (size_t i = 0; i < online.size(); ++i) {
        if (online.check(i) == nullptr) continue;  // post-hoc only
        const control::CheckResult r = online.check(i)->finalize(summary);
        if (r.passed != posthoc[i].passed || r.name != posthoc[i].name ||
            r.detail != posthoc[i].detail) {
          if (++online_mismatch == 1) {
            out->problems.push_back("online and post-hoc disagree on '" +
                                    r.name + "' for '" + e.id + "'");
          }
        }
      }
      layers->online_s.push_back(s.end());
    }

    // LogStore layer: append the collected records into a fresh store, and
    // extract the observed call graph.
    {
      const logstore::RecordList records = store.all();
      logstore::LogStore copy;
      Tracer::Scope s(tracer, "logstore.append", parent);
      for (const auto& r : records) copy.append(r);
      layers->append_s += s.end();
      layers->appended += records.size();
    }
    {
      Tracer::Scope s(tracer, "logstore.call_graph", parent);
      const logstore::CallGraph cg = store.call_graph();
      layers->call_graph_s.push_back(s.end());
    }
  }
  out->counts["replay_verdict_mismatches"] = verdict_mismatch;
  out->counts["online_posthoc_mismatches"] = online_mismatch;

  // Snapshot and restore at 80% of the load (800 ms of mega-mixed's 1 s).
  const control::LoadOptions& lo = first.load;
  const Duration at = lo.gap * static_cast<int64_t>(lo.count) * 4 / 5;
  world.reset(first.seed);
  world.begin_snapshot_capture();
  {
    control::LoadDriver driver(&world, first.client, load_target(first, graph),
                               lo);
    control::LoadResult sink;
    sink.latencies.resize(lo.count);
    sink.statuses.resize(lo.count);
    driver.bind(&sink, {});
    driver.schedule_all();
    world.run_until(TimePoint{} + at - Duration(1));
    // Snapshots pin the request-path objects their saved events reference,
    // so every one stays alive until the restored events are cancelled.
    std::vector<sim::SimSnapshot> snaps(8);
    for (sim::SimSnapshot& snap : snaps) {
      {
        Tracer::Scope s(tracer, "sim.snapshot", parent);
        snap = world.snapshot();
        layers->snapshot_s.push_back(s.end());
      }
      Tracer::Scope s(tracer, "sim.restore", parent);
      world.restore(snap);
      layers->restore_s.push_back(s.end());
    }
    world.end_snapshot_capture();
    driver.bind(nullptr, {});
    world.cancel_pending();
  }
}

void layer_metrics(const Layers& l, const SerialRun& serial,
                   const std::vector<size_t>& indices, double speedup,
                   Outcome* out) {
  std::vector<double> gaps_ms;
  for (const double g : serial.gaps) gaps_ms.push_back(g * 1e3);
  const gremlin::report::CampaignReport rep =
      gremlin::report::build_campaign_report(serial.result, "serial");
  const double n = static_cast<double>(std::max<uint64_t>(1, l.replayed));
  double untraced_same = 0;
  for (const size_t i : indices) untraced_same += serial.gaps[i];

  out->metric("campaign.experiment_ms_p50", percentile(gaps_ms, 50), "ms");
  out->metric("campaign.experiment_ms_p99", percentile(gaps_ms, 99), "ms");
  out->metric("campaign.speedup_2t", speedup, "x");
  out->metric("campaign.world_build_ms", median(l.world_build_s) * 1e3, "ms");
  out->metric("sim.reset_ms", median(l.reset_s) * 1e3, "ms");
  out->metric("sim.events_per_run", static_cast<double>(l.events) / n,
              "count");
  out->metric("sim.events_per_s",
              l.run_load_s > 0 ? static_cast<double>(l.events) / l.run_load_s
                               : 0,
              "1/s");
  out->metric("sim.snapshot_ms", median(l.snapshot_s) * 1e3, "ms");
  out->metric("sim.restore_ms", median(l.restore_s) * 1e3, "ms");
  out->metric("sim.snapshot_hits", static_cast<double>(rep.snapshot_hits),
              "count");
  out->metric("sim.prefix_events_skipped",
              static_cast<double>(rep.prefix_events_skipped), "count");
  double apply_sum = 0;
  for (const double a : l.apply_s) apply_sum += a;
  out->metric("control.apply_us",
              l.apply_s.empty() ? 0
                                : apply_sum /
                                      static_cast<double>(l.apply_s.size()) *
                                      1e6,
              "us");
  out->metric("control.collect_ms", median(l.collect_s) * 1e3, "ms");
  out->metric("control.online_check_us", median(l.online_s) * 1e6, "us");
  out->metric("control.posthoc_check_us", median(l.posthoc_s) * 1e6, "us");
  out->metric("control.early_exit_share",
              rep.total > 0 ? static_cast<double>(rep.early_terminated) /
                                  static_cast<double>(rep.total)
                            : 0,
              "ratio");
  out->metric("logstore.records_per_experiment",
              static_cast<double>(l.records) / n, "count");
  out->metric("logstore.append_ns",
              l.appended > 0
                  ? l.append_s / static_cast<double>(l.appended) * 1e9
                  : 0,
              "ns");
  out->metric("logstore.call_graph_ms", median(l.call_graph_s) * 1e3, "ms");
  out->metric("trace.overhead_share",
              untraced_same > 0 ? l.chain_s / untraced_same - 1 : 0, "ratio");
  out->counts["snapshot_misses"] = rep.snapshot_misses;
  out->counts["replayed"] = l.replayed;
}

struct SearchLayers {
  double enumerate_s = 0, baseline_s = 0, batch_s = 0, shrink_s = 0;
  std::vector<double> probe_s;
  uint64_t shrink_calls = 0;
};

void search_metrics(const SearchLayers& s, const search::SearchOutcome& o,
                    Outcome* out) {
  out->metric("search.enumerate_ms", s.enumerate_s * 1e3, "ms");
  out->metric("search.baseline_ms", s.baseline_s * 1e3, "ms");
  out->metric("search.batch_s", s.batch_s, "s");
  out->metric("search.shrink_s", s.shrink_s, "s");
  out->metric("search.shrink_probe_ms_p50", median(s.probe_s) * 1e3, "ms");
  out->metric("search.shrink_runs", static_cast<double>(o.shrink_runs),
              "count");
  out->metric("search.probes_per_finding",
              s.shrink_calls > 0 ? static_cast<double>(o.shrink_runs) /
                                       static_cast<double>(s.shrink_calls)
                                 : 0,
              "count");
  out->metric("search.pruned_share",
              o.generated > 0 ? static_cast<double>(o.pruned) /
                                    static_cast<double>(o.generated)
                              : 0,
              "ratio");
}

constexpr size_t kMaxReplays = 256;

void traced_campaign(const Inputs& in, Tracer* tracer, Outcome* out) {
  const SerialRun serial = run_serial(in.experiments, true);
  campaign::CampaignResult parallel;
  const double wall2 = run_parallel(in.experiments, &parallel);
  out->attempted += 2 * in.experiments.size();
  out->failed += serial.result.errors();
  if (parallel.fingerprint() != serial.result.fingerprint()) {
    out->problems.push_back("threads=2 results differ from threads=1");
  }

  std::vector<double> build;
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope s(tracer, "report.build", 0);
    const auto rep =
        gremlin::report::build_campaign_report(serial.result, in.title);
    const std::string json = rep.to_json().dump(2);
    build.push_back(s.end());
    out->digests = {{"result_fingerprint", rep.result_fingerprint},
                    {"verdict_fingerprint", fnv_hex(rep.verdict_fingerprint)}};
  }

  const std::vector<size_t> indices =
      sample_indices(in.experiments.size(), kMaxReplays);
  Layers layers;
  {
    Tracer::Scope s(tracer, "replay", 0);
    replay(in.experiments, indices, serial.result.experiments, tracer, s.id(),
           &layers, out);
  }
  out->attempted += layers.replayed;

  layer_metrics(layers, serial, indices, serial.wall / wall2, out);
  search_metrics(SearchLayers{}, search::SearchOutcome{}, out);
  out->metric("report.build_ms", median(build) * 1e3, "ms");
}

void traced_search(const Inputs& in, Tracer* tracer, Outcome* out) {
  const search::SearchOptions& options = in.search_options;  // threads = 1

  // Untraced run_search at one and two threads.
  double t0 = now_s();
  const search::SearchOutcome serial = search::run_search(in.app, options);
  const double wall1 = now_s() - t0;
  search::SearchOptions two = options;
  two.threads = 2;
  t0 = now_s();
  const search::SearchOutcome parallel = search::run_search(in.app, two);
  const double wall2 = now_s() - t0;
  out->attempted += 2 * (1 + serial.ran + serial.shrink_runs);
  if (search_funnel(serial) != search_funnel(parallel) ||
      search_findings_digest(serial) != search_findings_digest(parallel)) {
    out->problems.push_back("run_search differs between 1 and 2 threads");
  }

  std::vector<double> build;
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope s(tracer, "report.build", 0);
    const auto rep = gremlin::report::build_search_report(serial, in.app.name);
    const std::string json = rep.to_json().dump(2);
    build.push_back(s.end());
  }

  // The composed search.
  SearchLayers sl;
  search::SearchOutcome composed;
  composed.ok = true;
  std::vector<campaign::Experiment> experiments;
  SerialRun batch;
  {
    Tracer::Scope root(tracer, "search", 0);
    std::vector<search::FaultPoint> points;
    std::vector<search::Combination> combos;
    const gremlin::topology::AppGraph graph = in.app.probe_graph();
    const std::string target = resolve_target(graph, options);
    {
      Tracer::Scope s(tracer, "search.enumerate", root.id());
      points = search::enumerate_fault_points(graph, options.generator,
                                              {options.client, target});
      combos = search::generate_combinations(points, options.generator,
                                             &composed.truncated);
      sl.enumerate_s = s.end();
    }
    composed.fault_points = points.size();
    composed.generated = combos.size();

    search::Baseline baseline;
    {
      Tracer::Scope s(tracer, "search.baseline", root.id());
      baseline = search::run_baseline(
          search_experiment(in.app, options, target, "", {}));
      sl.baseline_s = s.end();
    }
    if (!baseline.result.passed()) {
      out->problems.push_back("search baseline does not pass");
    }

    {
      Tracer::Scope s(tracer, "search.decide", root.id());
      for (const auto& combo : combos) {
        if (!search::decide(points, combo, baseline.call_graph).keep()) {
          ++composed.pruned;
          continue;
        }
        std::vector<gremlin::control::FailureSpec> faults;
        for (const size_t p : combo.points) faults.push_back(points[p].spec);
        experiments.push_back(search_experiment(in.app, options, target,
                                                combo.label,
                                                std::move(faults)));
      }
    }

    {
      Tracer::Scope s(tracer, "search.batch", root.id());
      batch = run_serial(experiments, false);
      sl.batch_s = s.end();
    }
    composed.ran = batch.result.experiments.size();

    Tracer::Scope shrink_span(tracer, "search.shrink", root.id());
    campaign::ExecOptions exec;
    exec.keep_latencies = false;
    const search::RunFn probe = [&](const campaign::Experiment& e) {
      Tracer::Scope s(tracer, "search.shrink_probe", shrink_span.id());
      campaign::ExperimentResult r = campaign::CampaignRunner::run_one(e, exec);
      sl.probe_s.push_back(s.end());
      return r;
    };
    std::map<std::string, size_t> finding_index;
    for (size_t i = 0; i < batch.result.experiments.size(); ++i) {
      const campaign::ExperimentResult& r = batch.result.experiments[i];
      if (!r.ok) {
        ++composed.errors;
        continue;
      }
      if (r.passed()) {
        ++composed.passed;
        continue;
      }
      ++composed.failed;
      ++sl.shrink_calls;
      const search::ShrinkResult shrunk =
          search::shrink(experiments[i], probe, options.shrink_options);
      composed.shrink_runs += shrunk.runs;
      search::Finding f;
      f.combination = r.id;
      f.flaky = shrunk.flaky;
      f.signature = shrunk.signature;
      f.load_count = shrunk.minimal.load.count;
      for (const auto& spec : shrunk.minimal.failures) {
        if (!f.minimal.empty()) f.minimal += " + ";
        f.minimal += search::describe(spec);
      }
      if (f.flaky) f.minimal = "(flaky) " + f.combination;
      if (finding_index.emplace(f.minimal, composed.findings.size()).second) {
        composed.findings.push_back(std::move(f));
      }
    }
    sl.shrink_s = shrink_span.end();
  }
  out->attempted += 1 + composed.ran + composed.shrink_runs;
  out->failed += composed.errors;
  if (search_funnel(composed) != search_funnel(serial) ||
      search_findings_digest(composed) != search_findings_digest(serial)) {
    out->problems.push_back("composed search differs from run_search");
  }

  const std::vector<size_t> indices =
      sample_indices(experiments.size(), kMaxReplays);
  Layers layers;
  {
    Tracer::Scope s(tracer, "replay", 0);
    replay(experiments, indices, batch.result.experiments, tracer, s.id(),
           &layers, out);
  }
  out->attempted += layers.replayed;

  layer_metrics(layers, batch, indices, wall1 / wall2, out);
  search_metrics(sl, serial, out);
  out->metric("report.build_ms", median(build) * 1e3, "ms");
  for (const auto& [name, value] : search_funnel(serial)) {
    out->counts["search." + name] = value;
  }
  out->digests["findings"] = search_findings_digest(serial);
}

}  // namespace

Outcome run_traced(const std::string& workload, uint64_t seed, Size size,
                   const std::string& spans_path) {
  Outcome out;
  Tracer tracer;
  const Inputs in = make_inputs(workload, seed, size, /*threads=*/1);
  if (in.is_search) {
    traced_search(in, &tracer, &out);
  } else {
    traced_campaign(in, &tracer, &out);
  }
  if (!out.problems.empty()) out.failed = out.attempted;
  if (!spans_path.empty() && !tracer.write(spans_path)) {
    out.problems.push_back("cannot write spans to " + spans_path);
  }
  return out;
}

}  // namespace perfbench
