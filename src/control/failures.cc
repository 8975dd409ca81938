#include "control/failures.h"

#include <charconv>
#include <cstring>

namespace gremlin::control {
namespace {

using faults::FaultRule;

// Rule IDs embed a sequence number so repeated applications of the same
// spec stay distinguishable (FailureOrchestrator removes rules by ID). The
// sequence is caller-owned — NOT a process-global — so that translations
// are deterministic: a campaign worker translating experiment N always
// mints the same IDs regardless of what other threads are doing.
std::string rule_id(uint64_t* seq, const char* scenario,
                    const std::string& src, const std::string& dst,
                    const char* what) {
  return std::string(scenario) + "-" + what + "-" + src + "->" + dst + "-" +
         std::to_string(++*seq);
}

VoidResult require_service(const topology::AppGraph& graph,
                           const std::string& name) {
  if (name == "*" || graph.has_service(name)) return VoidResult::success();
  return Error::not_found("service '" + name +
                          "' is not in the application graph");
}

}  // namespace

FailureSpec FailureSpec::abort_edge(std::string src, std::string dst,
                                    int error, std::string pattern) {
  FailureSpec s;
  s.kind = Kind::kAbort;
  s.a = std::move(src);
  s.b = std::move(dst);
  s.error = error;
  s.pattern = std::move(pattern);
  return s;
}

FailureSpec FailureSpec::delay_edge(std::string src, std::string dst,
                                    Duration interval, std::string pattern) {
  FailureSpec s;
  s.kind = Kind::kDelay;
  s.a = std::move(src);
  s.b = std::move(dst);
  s.delay = interval;
  s.pattern = std::move(pattern);
  return s;
}

FailureSpec FailureSpec::modify_edge(std::string src, std::string dst,
                                     std::string body_pattern,
                                     std::string replace_bytes,
                                     std::string pattern) {
  FailureSpec s;
  s.kind = Kind::kModify;
  s.a = std::move(src);
  s.b = std::move(dst);
  s.body_pattern = std::move(body_pattern);
  s.replace_bytes = std::move(replace_bytes);
  s.pattern = std::move(pattern);
  return s;
}

FailureSpec FailureSpec::disconnect(std::string src, std::string dst,
                                    int error) {
  FailureSpec s;
  s.kind = Kind::kDisconnect;
  s.a = std::move(src);
  s.b = std::move(dst);
  s.error = error;
  return s;
}

FailureSpec FailureSpec::crash(std::string service) {
  FailureSpec s;
  s.kind = Kind::kCrash;
  s.b = std::move(service);
  return s;
}

FailureSpec FailureSpec::hang(std::string service, Duration interval) {
  FailureSpec s;
  s.kind = Kind::kHang;
  s.b = std::move(service);
  s.delay = interval;
  return s;
}

FailureSpec FailureSpec::overload(std::string service, Duration delay,
                                  double abort_fraction) {
  FailureSpec s;
  s.kind = Kind::kOverload;
  s.b = std::move(service);
  s.overload_delay = delay;
  s.overload_abort_fraction = abort_fraction;
  return s;
}

FailureSpec FailureSpec::fake_success(std::string service,
                                      std::string body_pattern,
                                      std::string replace_bytes) {
  FailureSpec s;
  s.kind = Kind::kFakeSuccess;
  s.b = std::move(service);
  s.body_pattern = std::move(body_pattern);
  s.replace_bytes = std::move(replace_bytes);
  return s;
}

FailureSpec FailureSpec::partition(std::set<std::string> group) {
  FailureSpec s;
  s.kind = Kind::kPartition;
  s.group = std::move(group);
  return s;
}

FailureSpec FailureSpec::instance_crash(std::string service, Duration after,
                                        Duration downtime) {
  FailureSpec s;
  s.kind = Kind::kInstanceCrash;
  s.b = std::move(service);
  s.after = after;
  s.window = downtime;
  return s;
}

FailureSpec FailureSpec::rolling_partition(std::set<std::string> group,
                                           Duration after, Duration window,
                                           Duration stagger) {
  FailureSpec s;
  s.kind = Kind::kRollingPartition;
  s.group = std::move(group);
  s.after = after;
  s.window = window;
  s.stagger = stagger;
  return s;
}

FailureSpec FailureSpec::slow_node(std::string service, Duration mean,
                                   Duration after, Duration window) {
  FailureSpec s;
  s.kind = Kind::kSlowNode;
  s.b = std::move(service);
  s.delay_distribution = faults::DelayDistribution::kExponential;
  s.delay_mean = mean;
  s.after = after;
  s.window = window;
  return s;
}

std::string FailureSpec::fingerprint() const {
  std::string out;
  fingerprint_into(&out);
  return out;
}

void FailureSpec::fingerprint_into(std::string* out) const {
  // to_chars into a stack buffer: std::to_string of a 64-bit value exceeds
  // the small-string capacity and would heap-allocate a temporary per field.
  const auto append_num = [out](auto v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out->append(buf, res.ptr);
  };
  const auto append_bits = [&append_num](double v) {
    uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    append_num(u);
  };
  append_num(static_cast<int>(kind));
  *out += '|';
  *out += a;
  *out += '|';
  *out += b;
  *out += '|';
  for (const auto& member : group) {
    *out += member;
    *out += ',';
  }
  *out += '|';
  *out += pattern;
  *out += '|';
  append_bits(probability);
  *out += '|';
  append_num(error);
  *out += '|';
  append_num(delay.count());
  *out += '|';
  append_bits(overload_abort_fraction);
  *out += '|';
  append_num(overload_delay.count());
  *out += '|';
  *out += body_pattern;
  *out += '|';
  *out += replace_bytes;
  *out += '|';
  append_num(static_cast<int>(on));
  *out += '|';
  append_num(max_matches);
  *out += '|';
  append_num(after.count());
  *out += '|';
  append_num(window.count());
  *out += '|';
  append_num(stagger.count());
  *out += '|';
  append_num(static_cast<int>(delay_distribution));
  *out += '|';
  append_num(delay_min.count());
  *out += '|';
  append_num(delay_max.count());
  *out += '|';
  append_num(delay_mean.count());
  *out += '|';
  for (const Duration d : delay_values) {
    append_num(d.count());
    *out += ',';
  }
}

const char* FailureSpec::kind_name() const {
  switch (kind) {
    case Kind::kAbort: return "abort";
    case Kind::kDelay: return "delay";
    case Kind::kModify: return "modify";
    case Kind::kDisconnect: return "disconnect";
    case Kind::kCrash: return "crash";
    case Kind::kHang: return "hang";
    case Kind::kOverload: return "overload";
    case Kind::kFakeSuccess: return "fake_success";
    case Kind::kPartition: return "partition";
    case Kind::kInstanceCrash: return "instance_crash";
    case Kind::kRollingPartition: return "rolling_partition";
    case Kind::kSlowNode: return "slow_node";
  }
  return "unknown";
}

Result<std::vector<FaultRule>> translate_failure(
    const topology::AppGraph& graph, const FailureSpec& spec,
    uint64_t* sequence) {
  uint64_t local_seq = 0;
  uint64_t* seq = sequence != nullptr ? sequence : &local_seq;
  std::vector<FaultRule> rules;

  auto make_abort = [&spec, seq](const std::string& src,
                                 const std::string& dst, int error,
                                 double probability, const char* scenario) {
    FaultRule r;
    r.id = rule_id(seq, scenario, src, dst, "abort");
    r.source = src;
    r.destination = dst;
    r.type = faults::FaultKind::kAbort;
    r.abort_code = error;
    r.pattern = spec.pattern;
    r.probability = probability;
    r.on = logstore::MessageKind::kRequest;
    r.max_matches = spec.max_matches;
    r.after = spec.after;
    r.window_duration = spec.window;
    return r;
  };
  auto make_delay = [&spec, seq](const std::string& src,
                                 const std::string& dst, Duration interval,
                                 double probability, const char* scenario) {
    FaultRule r;
    r.id = rule_id(seq, scenario, src, dst, "delay");
    r.source = src;
    r.destination = dst;
    r.type = faults::FaultKind::kDelay;
    r.delay_interval = interval;
    r.delay_distribution = spec.delay_distribution;
    r.delay_min = spec.delay_min;
    r.delay_max = spec.delay_max;
    r.delay_mean = spec.delay_mean;
    r.delay_values = spec.delay_values;
    r.pattern = spec.pattern;
    r.probability = probability;
    r.on = logstore::MessageKind::kRequest;
    r.max_matches = spec.max_matches;
    r.after = spec.after;
    r.window_duration = spec.window;
    return r;
  };

  switch (spec.kind) {
    case FailureSpec::Kind::kAbort: {
      auto ok = require_service(graph, spec.a);
      if (!ok.ok()) return ok.error();
      ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      FaultRule r = make_abort(spec.a, spec.b, spec.error, spec.probability,
                               "abort");
      r.on = spec.on;
      rules.push_back(std::move(r));
      break;
    }
    case FailureSpec::Kind::kDelay: {
      auto ok = require_service(graph, spec.a);
      if (!ok.ok()) return ok.error();
      ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      FaultRule r = make_delay(spec.a, spec.b, spec.delay, spec.probability,
                               "delay");
      r.on = spec.on;
      rules.push_back(std::move(r));
      break;
    }
    case FailureSpec::Kind::kModify: {
      auto ok = require_service(graph, spec.a);
      if (!ok.ok()) return ok.error();
      ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      FaultRule r;
      r.id = rule_id(seq, "modify", spec.a, spec.b, "modify");
      r.source = spec.a;
      r.destination = spec.b;
      r.type = faults::FaultKind::kModify;
      r.body_pattern = spec.body_pattern;
      r.replace_bytes = spec.replace_bytes;
      r.pattern = spec.pattern;
      r.probability = spec.probability;
      r.on = spec.on;
      r.max_matches = spec.max_matches;
      r.after = spec.after;
      r.window_duration = spec.window;
      rules.push_back(std::move(r));
      break;
    }
    case FailureSpec::Kind::kDisconnect: {
      auto ok = require_service(graph, spec.a);
      if (!ok.ok()) return ok.error();
      ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      rules.push_back(make_abort(spec.a, spec.b, spec.error,
                                 spec.probability, "disconnect"));
      break;
    }
    case FailureSpec::Kind::kCrash: {
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      for (const auto& dep : graph.dependents(spec.b)) {
        rules.push_back(make_abort(dep, spec.b, faults::kTcpReset,
                                   spec.probability, "crash"));
      }
      break;
    }
    case FailureSpec::Kind::kHang: {
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      for (const auto& dep : graph.dependents(spec.b)) {
        rules.push_back(make_delay(dep, spec.b, spec.delay, spec.probability,
                                   "hang"));
      }
      break;
    }
    case FailureSpec::Kind::kOverload: {
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      // Section 5: Abort 25% of requests with an error code, delay the rest.
      // First-match-wins evaluation with a probabilistic fall-through means
      // the delay rule sees exactly the abort rule's declined traffic, so
      // Delay's conditional probability of 1.0 yields the 25/75 split. The
      // split is the scenario, so spec.probability does not apply here.
      for (const auto& dep : graph.dependents(spec.b)) {
        rules.push_back(make_abort(dep, spec.b, 503,
                                   spec.overload_abort_fraction, "overload"));
        rules.push_back(make_delay(dep, spec.b, spec.overload_delay, 1.0,
                                   "overload"));
      }
      break;
    }
    case FailureSpec::Kind::kFakeSuccess: {
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      for (const auto& dep : graph.dependents(spec.b)) {
        FaultRule r;
        r.id = rule_id(seq, "fake-success", dep, spec.b, "modify");
        r.source = dep;
        r.destination = spec.b;
        r.type = faults::FaultKind::kModify;
        r.body_pattern = spec.body_pattern;
        r.replace_bytes = spec.replace_bytes;
        r.pattern = spec.pattern;
        r.probability = spec.probability;
        r.on = logstore::MessageKind::kResponse;
        rules.push_back(std::move(r));
      }
      break;
    }
    case FailureSpec::Kind::kPartition: {
      for (const auto& svc : spec.group) {
        auto ok = require_service(graph, svc);
        if (!ok.ok()) return ok.error();
      }
      for (const auto& edge : graph.cut(spec.group)) {
        rules.push_back(make_abort(edge.src, edge.dst, faults::kTcpReset,
                                   spec.probability, "partition"));
      }
      break;
    }
    case FailureSpec::Kind::kInstanceCrash: {
      // Network view of an instance outage: every dependent sees resets
      // while the service is down. The simulator-level down/up hook (the
      // service refusing work it already accepted) is scheduled by
      // TestSession::apply, which owns the Simulation; the rules here make
      // the scenario meaningful on the proxy data plane too.
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      for (const auto& dep : graph.dependents(spec.b)) {
        rules.push_back(make_abort(dep, spec.b, faults::kTcpReset,
                                   spec.probability, "instance-crash"));
      }
      break;
    }
    case FailureSpec::Kind::kRollingPartition: {
      for (const auto& svc : spec.group) {
        auto ok = require_service(graph, svc);
        if (!ok.ok()) return ok.error();
      }
      // Members are isolated one after another in their (sorted) set order:
      // member i's cut edges reset during [after + i*stagger, +window].
      uint64_t index = 0;
      for (const auto& svc : spec.group) {
        const Duration member_after = spec.after + spec.stagger * index;
        std::set<std::string> lone{svc};
        for (const auto& edge : graph.cut(lone)) {
          FaultRule r = make_abort(edge.src, edge.dst, faults::kTcpReset,
                                   spec.probability, "rolling-partition");
          r.after = member_after;
          r.window_duration = spec.window;
          rules.push_back(std::move(r));
        }
        ++index;
      }
      break;
    }
    case FailureSpec::Kind::kSlowNode: {
      auto ok = require_service(graph, spec.b);
      if (!ok.ok()) return ok.error();
      for (const auto& dep : graph.dependents(spec.b)) {
        rules.push_back(make_delay(dep, spec.b, spec.delay, spec.probability,
                                   "slow-node"));
      }
      break;
    }
  }
  return rules;
}

}  // namespace gremlin::control
