#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "campaign/execution_context.h"
#include "campaign/process_pool.h"
#include "campaign/warm_world.h"
#include "control/collector.h"
#include "control/online.h"

namespace gremlin::campaign {

namespace {

// Serializes a Duration exactly (tick count), so fingerprints are
// byte-identical iff the underlying values are.
void append_duration(std::string* out, Duration d) {
  *out += std::to_string(d.count());
  *out += ',';
}

// Virtual-time drain cadence of the streaming collector.
constexpr Duration kStreamInterval = msec(5);

}  // namespace

std::string ExperimentResult::fingerprint() const {
  std::string out;
  out += id;
  out += '|';
  out += std::to_string(seed);
  out += '|';
  out += ok ? '1' : '0';
  out += error;
  out += '|';
  out += std::to_string(rules_installed);
  out += '|';
  for (const auto& check : checks) {
    out += check.passed ? "P:" : "F:";
    out += check.name;
    out += '=';
    out += check.detail;
    out += ';';
  }
  out += '|';
  out += std::to_string(requests);
  out += ',';
  out += std::to_string(failures);
  out += '|';
  for (const Duration d : latencies) append_duration(&out, d);
  out += '|';
  for (const int s : statuses) {
    out += std::to_string(s);
    out += ',';
  }
  out += '\n';
  return out;
}

std::string ExperimentResult::verdict_fingerprint() const {
  std::string out;
  out += id;
  out += '|';
  out += std::to_string(seed);
  out += '|';
  out += ok ? '1' : '0';
  out += error;
  out += '|';
  for (const auto& check : checks) {
    out += check.passed ? "P:" : "F:";
    out += check.name;
    out += ';';
  }
  out += '\n';
  return out;
}

size_t CampaignResult::passed() const {
  size_t n = 0;
  for (const auto& e : experiments) {
    if (e.passed()) ++n;
  }
  return n;
}

size_t CampaignResult::failed() const {
  size_t n = 0;
  for (const auto& e : experiments) {
    if (e.ok && !e.passed()) ++n;
  }
  return n;
}

size_t CampaignResult::errors() const {
  size_t n = 0;
  for (const auto& e : experiments) {
    if (!e.ok) ++n;
  }
  return n;
}

std::string CampaignResult::fingerprint() const {
  std::string out;
  for (const auto& e : experiments) out += e.fingerprint();
  return out;
}

std::string CampaignResult::verdict_fingerprint() const {
  std::string out;
  for (const auto& e : experiments) out += e.verdict_fingerprint();
  return out;
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_(std::move(options)) {}

int CampaignRunner::resolved_threads() const {
  if (options_.threads > 0) return options_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ExperimentResult CampaignRunner::run_one(const Experiment& experiment,
                                         const ExecOptions& exec) {
  // A fully private deployment: clock, RNG, log store, services, agents.
  sim::SimulationConfig cfg;
  cfg.seed = experiment.seed;
  cfg.use_timer_wheel = exec.use_timer_wheel;
  sim::Simulation sim(cfg);
  return run_in(experiment, &sim, exec);
}

ExperimentResult CampaignRunner::run_in(const Experiment& experiment,
                                        sim::Simulation* sim,
                                        const ExecOptions& exec) {
  return run_prepared(experiment, sim, nullptr, nullptr, exec);
}

ExperimentResult CampaignRunner::run_prepared(const Experiment& experiment,
                                              sim::Simulation* sim,
                                              const topology::AppGraph* graph,
                                              control::RuleCache* rule_cache,
                                              const ExecOptions& exec) {
  ExperimentResult result;
  result.id = experiment.id;
  result.seed = experiment.seed;

  topology::AppGraph local_graph;
  if (graph == nullptr) {
    local_graph = experiment.app.instantiate(sim);
    graph = &local_graph;
  }
  control::TestSession session(sim, graph);

  if (experiment.custom) {
    result.checks = experiment.custom(&session);
    for (const auto& check : result.checks) {
      if (check.passed) ++result.checks_passed;
    }
    result.ok = true;
    return result;
  }

  if (!ExperimentBody::apply_failures(experiment, &session, rule_cache,
                                      &result)) {
    return result;
  }
  const std::string target =
      load_target(*graph, experiment.client, experiment.target);
  if (target.empty()) {
    result.error = "no load target: graph has no entry point";
    return result;
  }

  ExperimentBody body(experiment, graph, exec);
  return body.run(
      std::move(result), &session,
      [&session, &experiment, &target](
          control::SimStreamCollector* collector,
          std::function<void(bool failed)> on_response) {
        session.set_response_observer(std::move(on_response));
        if (collector != nullptr) collector->start();
        control::LoadResult load =
            session.run_load(experiment.client, target, experiment.load);
        session.set_response_observer(nullptr);
        return load;
      });
}

ExperimentBody::ExperimentBody(const Experiment& experiment,
                               const topology::AppGraph* graph,
                               const ExecOptions& exec)
    : exec_(exec) {
  // One state machine per declarative check, fed every log record the
  // stream collector drains (plus every user-visible response). They are
  // the only evaluators: with early exit off they simply see the whole run.
  for (const auto& spec : experiment.checks) {
    online_.add(spec.incremental(graph, experiment.load.count));
  }
}

bool ExperimentBody::apply_failures(const Experiment& experiment,
                                    control::TestSession* session,
                                    control::RuleCache* rule_cache,
                                    ExperimentResult* result) {
  for (const auto& spec : experiment.failures) {
    auto installed = session->apply(spec, rule_cache);
    if (!installed.ok()) {
      result->error = "apply " + std::string(spec.kind_name()) + ": " +
                      installed.error().message;
      return false;
    }
    result->rules_installed += installed.value();
  }
  return true;
}

ExperimentResult ExperimentBody::run(ExperimentResult result,
                                     control::TestSession* session,
                                     const Drive& drive) {
  sim::Simulation& sim = session->sim();
  const bool wants_records = online_.wants_records();
  // Verdicts are sticky: once every check holds one, the rest of the
  // simulation cannot change the outcome, so early exit stops the run.
  const auto stop_if_decided = [this, &sim] {
    if (exec_.early_exit && online_.all_decided()) sim.request_stop();
  };
  // Load-only check sets that do not preserve the log never read a single
  // record. Rather than buffering ~1k records per run in the sidecars and
  // draining them onto the floor, switch observation capture off for the
  // whole run: the data plane skips LogRecord construction entirely. Fault
  // injection and the event timeline are untouched, so results stay
  // byte-identical.
  const bool suppress_records = !captures_records();

  // Record-consuming checks get each drained, time-sorted batch directly;
  // the store only keeps it for a caller that reads the log afterwards.
  std::optional<control::SimStreamCollector> collector;
  if (wants_records) {
    collector.emplace(
        &sim,
        [this, &sim, &stop_if_decided](logstore::RecordList&& batch) {
          for (const auto& record : batch) online_.offer(record);
          stop_if_decided();
          if (exec_.preserve_log) sim.log_store().append_all(std::move(batch));
        },
        kStreamInterval);
  }
  if (suppress_records) sim.set_recording(false);
  std::function<void(bool failed)> on_response =
      [this, &stop_if_decided](bool failed) {
        online_.on_user_response(failed);
        stop_if_decided();
      };

  const control::LoadResult load =
      drive(collector ? &*collector : nullptr, std::move(on_response));
  result.requests = load.total();
  result.failures = load.failures;
  result.early_terminated = load.stopped_early;
  if (exec_.keep_latencies) {
    result.latencies = load.latencies;
    result.statuses = load.statuses;
  }

  if (collector) collector->drain_now();  // final flush feeds the checks' tail
  if (suppress_records) sim.set_recording(true);
  // Drop whatever an early stop left on the timeline (and the collector's
  // pending drain), so a kept-alive sim is clean for its next run.
  sim.cancel_pending();

  // The checks consumed the stream as it went; only a caller that reads
  // the log afterwards needs what was not streamed collected into the store.
  if (exec_.preserve_log) {
    auto collected = session->collect();
    if (!collected.ok()) {
      result.error = "collect: " + collected.error().message;
      return result;
    }
  }

  const control::LoadSummary summary{load.total(), load.failures};
  for (size_t i = 0; i < online_.size(); ++i) {
    control::CheckResult outcome = online_.check(i)->finalize(summary);
    if (outcome.passed) ++result.checks_passed;
    result.checks.push_back(std::move(outcome));
  }
  result.ok = true;
  return result;
}

CampaignResult CampaignRunner::run(
    const std::vector<Experiment>& experiments) const {
  // Multi-process sharding: fork worker processes and merge their streamed
  // results in experiment order (campaign/process_pool). Byte-identical to
  // the in-process path below; a batch of one experiment gains nothing
  // from a fork, so it stays in-process.
  if (options_.procs > 1 && experiments.size() > 1 && multiproc_available()) {
    return run_multiproc(experiments, options_);
  }

  CampaignResult campaign;
  campaign.experiments.resize(experiments.size());
  campaign.threads = resolved_threads();
  const auto start = std::chrono::steady_clock::now();

  const size_t n = experiments.size();
  const int threads =
      static_cast<int>(std::min<size_t>(campaign.threads, n == 0 ? 1 : n));

  ExecOptions exec;
  exec.keep_latencies = options_.keep_latencies;
  exec.early_exit = options_.early_exit;
  exec.use_timer_wheel = options_.use_timer_wheel;
  exec.use_snapshots = options_.use_snapshots;

  std::mutex result_mu;  // guards options_.on_result only
  std::atomic<uint64_t> cursor{0};
  auto worker = [&]() {
    // Worker-private execution context: warm worlds, symbol shard, and
    // allocation pools, none of it shared. Determinism is unaffected
    // because a reset world is byte-equivalent to a fresh one and
    // fingerprints carry no Symbol ids. Each result is written to a
    // distinct slot of the pre-sized vector.
    ExecutionContext ctx(options_.warm_worlds);
    ScopedShardSymbols bind_symbols(&ctx.symbols());
    IndexRange lease;
    while (claim_chunk(&cursor, n, static_cast<uint64_t>(threads), &lease)) {
      for (uint64_t i = lease.begin; i < lease.end; ++i) {
        campaign.experiments[i] = ctx.execute(experiments[i], exec);
        ctx.merge();  // result boundary: publish new names, usually empty
        if (options_.on_result) {
          std::lock_guard lock(result_mu);
          options_.on_result(campaign.experiments[i]);
        }
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  campaign.wall_clock = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return campaign;
}

}  // namespace gremlin::campaign
