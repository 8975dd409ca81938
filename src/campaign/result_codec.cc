#include "campaign/result_codec.h"

namespace gremlin::campaign {

void encode_result(const ExperimentResult& result, wire::Writer* w) {
  w->u8(kResultWireVersion);
  w->str(result.id);
  w->u64(result.seed);
  w->boolean(result.ok);
  w->str(result.error);
  w->u64(result.rules_installed);
  w->u64(result.checks.size());
  for (const auto& check : result.checks) {
    w->boolean(check.passed);
    w->str(check.name);
    w->str(check.detail);
  }
  w->u64(result.checks_passed);
  w->u64(result.requests);
  w->u64(result.failures);
  w->boolean(result.early_terminated);
  w->u8(result.snapshot_path);
  w->u64(result.prefix_events_skipped);
  w->u64(result.latencies.size());
  for (const Duration d : result.latencies) w->i64(d.count());
  w->u64(result.statuses.size());
  for (const int s : result.statuses) w->i32(s);
}

bool decode_result(wire::Reader* r, ExperimentResult* result) {
  if (r->u8() != kResultWireVersion) return false;
  ExperimentResult out;
  out.id = r->str();
  out.seed = r->u64();
  out.ok = r->boolean();
  out.error = r->str();
  out.rules_installed = r->u64();
  const uint64_t checks = r->u64();
  if (!r->ok() || checks > r->remaining()) return false;  // ≥1 byte/check
  out.checks.reserve(checks);
  for (uint64_t i = 0; i < checks; ++i) {
    control::CheckResult check;
    check.passed = r->boolean();
    check.name = r->str();
    check.detail = r->str();
    out.checks.push_back(std::move(check));
  }
  out.checks_passed = r->u64();
  out.requests = r->u64();
  out.failures = r->u64();
  out.early_terminated = r->boolean();
  out.snapshot_path = r->u8();
  out.prefix_events_skipped = r->u64();
  const uint64_t latencies = r->u64();
  if (!r->ok() || latencies > r->remaining()) return false;
  out.latencies.reserve(latencies);
  for (uint64_t i = 0; i < latencies; ++i) out.latencies.push_back(Duration(r->i64()));
  const uint64_t statuses = r->u64();
  if (!r->ok() || statuses > r->remaining()) return false;
  out.statuses.reserve(statuses);
  for (uint64_t i = 0; i < statuses; ++i) out.statuses.push_back(r->i32());
  if (!r->ok()) return false;
  *result = std::move(out);
  return true;
}

std::string encode_result(const ExperimentResult& result) {
  wire::Writer w;
  encode_result(result, &w);
  return w.take();
}

bool decode_result(std::string_view bytes, ExperimentResult* result) {
  wire::Reader r(bytes);
  if (!decode_result(&r, result)) return false;
  return r.remaining() == 0;
}

}  // namespace gremlin::campaign
