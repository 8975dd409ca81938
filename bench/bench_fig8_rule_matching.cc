// Figure 8: worst-case overhead of rule matching — a request compared
// against all installed rules without matching any, for increasing rule
// counts.
//
// Two sections:
//   1. A CDF of per-request matching latency over 10000 requests through
//      faults::RuleEngine (the exact code both data planes run), for
//      1/5/10/50/100/200 installed rules — the paper's CDF axes.
//   2. The same worst case through the *real* sidecar proxy on loopback
//      (200 requests per rule count), measuring end-to-end completion time
//      like the paper's Apache Benchmark runs.
//
// Shape expectations: matching cost grows with rule count and stays in the
// microsecond range; proxy end-to-end times are dominated by the network
// path, with rule matching a small additive overhead.
#include <chrono>
#include <cstdio>
#include <vector>

#include "faults/rule_engine.h"
#include "httpserver/client.h"
#include "httpserver/server.h"
#include "proxy/agent.h"
#include "workload/stats.h"

namespace {

using namespace gremlin;  // NOLINT

// Rules that must be scanned but never match: the destination matches the
// evaluated edge while the request-ID pattern never does (worst case —
// every rule's glob is evaluated against the ID).
std::vector<faults::FaultRule> non_matching_rules(int count) {
  std::vector<faults::FaultRule> rules;
  rules.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    faults::FaultRule rule = faults::FaultRule::abort_rule(
        "client", "server", 503, "nomatch-" + std::to_string(i) + "-*");
    rule.id = "worstcase-" + std::to_string(i);
    rules.push_back(std::move(rule));
  }
  return rules;
}

// Keeps the compiler from discarding a value whose computation is timed.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

faults::MessageView test_request(const std::string& id) {
  faults::MessageView view;
  view.kind = logstore::MessageKind::kRequest;
  view.src = "client";
  view.dst = "server";
  view.request_id = id;
  view.method = "GET";
  view.uri = "/";
  return view;
}

void engine_cdf_section() {
  std::printf(
      "## RuleEngine worst-case matching latency CDF (10000 requests)\n");
  for (const int rule_count : {1, 5, 10, 50, 100, 200}) {
    faults::RuleEngine engine;
    auto install = engine.add_rules(non_matching_rules(rule_count));
    if (!install.ok()) {
      std::fprintf(stderr, "install failed\n");
      std::exit(1);
    }
    std::vector<Duration> samples;
    samples.reserve(10000);
    const std::string id = "test-abcdef-0123456789";
    const auto view = test_request(id);
    for (int i = 0; i < 10000; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto decision = engine.evaluate(view);
      const auto end = std::chrono::steady_clock::now();
      keep(decision);
      samples.push_back(
          std::chrono::duration_cast<Duration>(end - start));
    }
    const auto summary = workload::summarize(samples);
    std::printf(
        "rules=%3d  p50=%.2fus p90=%.2fus p99=%.2fus max=%.2fus\n",
        rule_count, to_seconds(summary.p50) * 1e6,
        to_seconds(summary.p90) * 1e6, to_seconds(summary.p99) * 1e6,
        to_seconds(summary.max) * 1e6);
  }
  std::printf("\n");
}

void proxy_section() {
  std::printf(
      "## Real proxy on loopback: request completion time, worst-case "
      "rules (200 requests each)\n");
  httpserver::HttpServer origin([](const httpmsg::Request&) {
    return httpmsg::make_response(200, "ok");
  });
  auto origin_port = origin.start();
  if (!origin_port.ok()) {
    std::fprintf(stderr, "origin start failed\n");
    std::exit(1);
  }
  for (const int rule_count : {0, 1, 5, 10, 50, 100}) {
    proxy::GremlinAgentProxy agent("client", "client/0");
    proxy::Route route;
    route.destination = "server";
    route.endpoints = {{"127.0.0.1", *origin_port}};
    agent.add_route(route);
    if (!agent.start().ok()) {
      std::fprintf(stderr, "proxy start failed\n");
      std::exit(1);
    }
    (void)agent.install_rules(non_matching_rules(rule_count));

    std::vector<Duration> samples;
    for (int i = 0; i < 200; ++i) {
      httpmsg::Request req;
      req.headers.set(httpmsg::kRequestIdHeader, "test-" + std::to_string(i));
      const auto start = std::chrono::steady_clock::now();
      auto result = httpserver::HttpClient::fetch(
          "127.0.0.1", agent.route_port("server"), std::move(req));
      const auto end = std::chrono::steady_clock::now();
      if (result.failed()) continue;
      samples.push_back(std::chrono::duration_cast<Duration>(end - start));
    }
    const auto summary = workload::summarize(samples);
    std::printf("rules=%3d  p50=%.1fus p90=%.1fus p99=%.1fus (n=%zu)\n",
                rule_count, to_seconds(summary.p50) * 1e6,
                to_seconds(summary.p90) * 1e6, to_seconds(summary.p99) * 1e6,
                summary.count);
    agent.stop();
  }
  origin.stop();
  std::printf("\n");
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // stream rows as they land
  std::printf("# Figure 8 — worst-case rule-matching overhead\n\n");
  engine_cdf_section();
  proxy_section();
  return 0;
}
