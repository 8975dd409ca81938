// Tests for the discrete-event simulator: event ordering, request/response
// timing composition, sidecar fault injection, resiliency-policy execution
// (timeouts, retries, breakers, bulkheads, shared pools), and observation
// logging.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "faults/rule.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace gremlin::sim {
namespace {

using faults::FaultRule;
using logstore::FaultKind;
using logstore::MessageKind;

// ------------------------------------------------------------ event queue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(msec(30), [&] { order.push_back(3); });
  q.schedule_at(msec(10), [&] { order.push_back(1); });
  q.schedule_at(msec(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreakIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(msec(10), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  std::vector<int64_t> at;
  sim.schedule(msec(5), [&] { at.push_back(sim.now().count()); });
  sim.schedule(msec(1), [&] {
    at.push_back(sim.now().count());
    sim.schedule(msec(2), [&] { at.push_back(sim.now().count()); });
  });
  sim.run();
  EXPECT_EQ(at, (std::vector<int64_t>{1000, 3000, 5000}));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(msec(1), [&] { ++fired; });
  sim.schedule(msec(10), [&] { ++fired; });
  sim.run_until(msec(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), msec(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  bool fired = false;
  sim.schedule(msec(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), kDurationZero);
}

// ------------------------------------------------------- basic request flow
TEST(SimRequestFlowTest, EndToEndLatencyComposesExactly) {
  Simulation sim;
  ServiceConfig b;
  b.name = "b";
  b.processing_time = msec(1);
  sim.add_service(b);
  ServiceConfig a;
  a.name = "a";
  a.processing_time = msec(1);
  a.dependencies = {"b"};
  sim.add_service(a);

  SimResponse got;
  TimePoint done{};
  SimRequest req;
  req.request_id = "test-0";
  sim.inject("user", "a", req, [&](const SimResponse& resp) {
    got = resp;
    done = sim.now();
  });
  sim.run();

  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, "ok:a");
  // user→a 0.5ms, a proc 1ms, a→b 0.5ms, b proc 1ms, b→a 0.5ms, a→user
  // 0.5ms = 4ms total.
  EXPECT_EQ(done, msec(4));
}

TEST(SimRequestFlowTest, SidecarsLogRequestsAndResponses) {
  Simulation sim;
  ServiceConfig b;
  b.name = "b";
  sim.add_service(b);
  ServiceConfig a;
  a.name = "a";
  a.dependencies = {"b"};
  sim.add_service(a);

  SimRequest req;
  req.request_id = "test-7";
  sim.inject("user", "a", req, [](const SimResponse&) {});
  sim.run();

  // a's sidecar observed one request and one response on edge a→b.
  auto records = sim.find_service("a")->instance(0).agent()->fetch_records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].kind, MessageKind::kRequest);
  EXPECT_EQ((*records)[0].src, "a");
  EXPECT_EQ((*records)[0].dst, "b");
  EXPECT_EQ((*records)[0].request_id, "test-7");
  EXPECT_EQ((*records)[1].kind, MessageKind::kResponse);
  EXPECT_EQ((*records)[1].status, 200);
  EXPECT_EQ((*records)[1].fault, FaultKind::kNone);

  // The user edge client's sidecar logged the user→a exchange.
  auto user_records =
      sim.find_service("user")->instance(0).agent()->fetch_records();
  ASSERT_TRUE(user_records.ok());
  EXPECT_EQ(user_records->size(), 2u);
}

TEST(SimRequestFlowTest, UnknownDependencyLooksLikeReset) {
  Simulation sim;
  ServiceConfig a;
  a.name = "a";
  a.dependencies = {"ghost"};
  sim.add_service(a);

  SimResponse got;
  sim.inject("user", "a", SimRequest{.request_id = "test-0"},
             [&](const SimResponse& r) { got = r; });
  sim.run();
  // a saw a reset from ghost, propagated a 500 upstream.
  EXPECT_EQ(got.status, 500);
}

TEST(SimRequestFlowTest, RoundRobinAcrossInstances) {
  Simulation sim;
  ServiceConfig b;
  b.name = "b";
  b.instances = 3;
  sim.add_service(b);

  for (int i = 0; i < 6; ++i) {
    sim.inject("user", "b", SimRequest{.request_id = "test"},
               [](const SimResponse&) {});
  }
  sim.run();
  SimService* svc = sim.find_service("b");
  EXPECT_EQ(svc->instance(0).requests_handled(), 2u);
  EXPECT_EQ(svc->instance(1).requests_handled(), 2u);
  EXPECT_EQ(svc->instance(2).requests_handled(), 2u);
}

// ------------------------------------------------------------ fault rules

struct TwoServiceFixture {
  Simulation sim;
  SimService* a = nullptr;
  SimService* b = nullptr;

  explicit TwoServiceFixture(resilience::CallPolicy a_policy = {}) {
    ServiceConfig b_cfg;
    b_cfg.name = "b";
    b_cfg.processing_time = msec(1);
    b = sim.add_service(b_cfg);
    ServiceConfig a_cfg;
    a_cfg.name = "a";
    a_cfg.processing_time = msec(1);
    a_cfg.dependencies = {"b"};
    a_cfg.default_policy = a_policy;
    a = sim.add_service(a_cfg);
  }

  void install_on_a(const FaultRule& rule) {
    ASSERT_TRUE(a->instance(0).agent()->install_rules({rule}).ok());
  }

  SimResponse call_once(const std::string& id = "test-0") {
    SimResponse got;
    sim.inject("user", "a", SimRequest{.request_id = id},
               [&](const SimResponse& r) { got = r; });
    sim.run();
    return got;
  }

  logstore::RecordList a_records() {
    auto r = a->instance(0).agent()->fetch_records();
    return r.ok() ? r.value() : logstore::RecordList{};
  }
};

TEST(SimFaultTest, AbortRuleSynthesizes503) {
  TwoServiceFixture f;
  f.install_on_a(FaultRule::abort_rule("a", "b", 503, "test-*"));
  const SimResponse resp = f.call_once();
  EXPECT_EQ(resp.status, 500);  // a propagates its dependency failure

  const auto records = f.a_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fault, FaultKind::kAbort);
  EXPECT_EQ(records[1].kind, MessageKind::kResponse);
  EXPECT_EQ(records[1].status, 503);
  EXPECT_EQ(records[1].fault, FaultKind::kAbort);
  // b never saw the request.
  EXPECT_EQ(f.b->instance(0).requests_handled(), 0u);
}

TEST(SimFaultTest, AbortRuleSparesUnmatchedFlows) {
  TwoServiceFixture f;
  f.install_on_a(FaultRule::abort_rule("a", "b", 503, "test-*"));
  const SimResponse resp = f.call_once("prod-1");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(f.b->instance(0).requests_handled(), 1u);
}

TEST(SimFaultTest, TcpResetObservedAsConnectionFailure) {
  TwoServiceFixture f;
  f.install_on_a(FaultRule::abort_rule("a", "b", faults::kTcpReset));
  f.call_once();
  const auto records = f.a_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].status, 0);  // reset: no HTTP status observed
}

TEST(SimFaultTest, DelayRuleAddsExactInterval) {
  TwoServiceFixture baseline;
  TimePoint t_base{};
  baseline.sim.inject("user", "a", SimRequest{.request_id = "test-0"},
                      [&](const SimResponse&) { t_base = baseline.sim.now(); });
  baseline.sim.run();

  TwoServiceFixture delayed;
  delayed.install_on_a(FaultRule::delay_rule("a", "b", msec(250)));
  TimePoint t_delayed{};
  delayed.sim.inject("user", "a", SimRequest{.request_id = "test-0"},
                     [&](const SimResponse&) { t_delayed = delayed.sim.now(); });
  delayed.sim.run();

  EXPECT_EQ(t_delayed - t_base, msec(250));

  const auto records = delayed.a_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fault, FaultKind::kDelay);
  EXPECT_EQ(records[0].injected_delay, msec(250));
  EXPECT_EQ(records[1].injected_delay, msec(250));  // carried to the reply
  EXPECT_EQ(records[1].status, 200);
}

TEST(SimFaultTest, ResponseSideDelayRule) {
  TwoServiceFixture f;
  FaultRule r = FaultRule::delay_rule("a", "b", msec(100));
  r.on = MessageKind::kResponse;
  f.install_on_a(r);
  TimePoint done{};
  f.sim.inject("user", "a", SimRequest{.request_id = "test-0"},
               [&](const SimResponse&) { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, msec(4) + msec(100));
}

TEST(SimFaultTest, ModifyRuleRewritesBodySeenByCallee) {
  Simulation sim;
  std::string seen_body;
  ServiceConfig b;
  b.name = "b";
  b.handler = [&seen_body](std::shared_ptr<RequestContext> ctx) {
    seen_body = ctx->request().body;
    ctx->respond(200, "ok");
  };
  sim.add_service(b);
  ServiceConfig a;
  a.name = "a";
  a.dependencies = {"b"};
  SimService* svc_a = sim.add_service(a);
  ASSERT_TRUE(svc_a->instance(0)
                  .agent()
                  ->install_rules({FaultRule::modify_rule("a", "b", "key",
                                                          "badkey")})
                  .ok());

  // Custom entry: send a body through a.
  ServiceConfig entry;
  entry.name = "user";
  sim.add_service(entry);
  SimRequest req;
  req.request_id = "test-0";
  req.body = "key=value";
  sim.inject("user", "a", req, [](const SimResponse&) {});
  // a's default handler forwards a fresh request (no body) to b, so instead
  // call b directly from a's instance to exercise the modify path.
  sim.run();
  // The default handler's sub-request has an empty body; modify leaves it
  // unchanged. Now call with an explicit body from a's instance:
  SimRequest direct;
  direct.request_id = "test-1";
  direct.body = "key=value";
  svc_a->instance(0).call_dependency("b", direct, [](const SimResponse&) {});
  sim.run();
  EXPECT_EQ(seen_body, "badkey=value");
}

// ------------------------------------------------------- policy execution

TEST(SimPolicyTest, TimeoutFiresBeforeSlowResponse) {
  Simulation sim;
  ServiceConfig b;
  b.name = "b";
  b.processing_time = msec(500);
  sim.add_service(b);
  resilience::CallPolicy policy;
  policy.timeout = msec(50);
  ServiceConfig a;
  a.name = "a";
  a.dependencies = {"b"};
  a.default_policy = policy;
  SimService* svc_a = sim.add_service(a);

  SimResponse got;
  TimePoint done{};
  sim.inject("user", "a", SimRequest{.request_id = "test-0"},
             [&](const SimResponse& r) {
               got = r;
               done = sim.now();
             });
  sim.run();
  EXPECT_EQ(got.status, 500);  // a propagated the timeout as failure
  // a's call timed out at 0.5ms(link)+1ms(proc a)+50ms = 51.5ms; plus the
  // return link 0.5ms = 52ms at the user.
  EXPECT_EQ(done, usec(500) + msec(1) + msec(50) + usec(500));
  // The sidecar logged the request, the client's give-up at the timeout
  // (status 0), and the late real response.
  auto records = svc_a->instance(0).agent()->fetch_records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1].status, 0);
  EXPECT_EQ((*records)[1].latency, msec(50));  // concluded at the timeout
  EXPECT_EQ((*records)[2].status, 200);
}

TEST(SimPolicyTest, RetriesUntilRuleExhausts) {
  resilience::CallPolicy policy;
  policy.retry.max_retries = 3;
  policy.retry.base_backoff = msec(10);
  TwoServiceFixture f(policy);
  FaultRule rule = FaultRule::abort_rule("a", "b", 503);
  rule.max_matches = 2;  // first two attempts fail, third succeeds
  f.install_on_a(rule);

  const SimResponse resp = f.call_once();
  EXPECT_EQ(resp.status, 200);
  const auto records = f.a_records();
  size_t requests = 0;
  for (const auto& r : records) {
    if (r.kind == MessageKind::kRequest) ++requests;
  }
  EXPECT_EQ(requests, 3u);
}

TEST(SimPolicyTest, RetriesExhaustedReturnsLastFailure) {
  resilience::CallPolicy policy;
  policy.retry.max_retries = 2;
  policy.retry.base_backoff = msec(1);
  TwoServiceFixture f(policy);
  f.install_on_a(FaultRule::abort_rule("a", "b", 503));
  const SimResponse resp = f.call_once();
  EXPECT_EQ(resp.status, 500);
  size_t requests = 0;
  for (const auto& r : f.a_records()) {
    if (r.kind == MessageKind::kRequest) ++requests;
  }
  EXPECT_EQ(requests, 3u);  // 1 initial + 2 retries
}

TEST(SimPolicyTest, FallbackMasksFailure) {
  resilience::CallPolicy policy;
  policy.fallback = resilience::Fallback{200, "cached"};
  TwoServiceFixture f(policy);
  f.install_on_a(FaultRule::abort_rule("a", "b", 503));
  const SimResponse resp = f.call_once();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok:a");  // a served its own success using fallback
}

TEST(SimPolicyTest, CircuitBreakerShortCircuitsAfterThreshold) {
  resilience::CallPolicy policy;
  policy.circuit_breaker = resilience::CircuitBreakerConfig{3, sec(30), 1};
  TwoServiceFixture f(policy);
  f.install_on_a(FaultRule::abort_rule("a", "b", 503));

  for (int i = 0; i < 10; ++i) {
    f.call_once("test-" + std::to_string(i));
  }
  // Only the first 3 calls reach the wire; the rest are short-circuited.
  size_t requests = 0;
  for (const auto& r : f.a_records()) {
    if (r.kind == MessageKind::kRequest) ++requests;
  }
  EXPECT_EQ(requests, 3u);
}

TEST(SimPolicyTest, CircuitBreakerHalfOpensAfterInterval) {
  resilience::CallPolicy policy;
  policy.circuit_breaker = resilience::CircuitBreakerConfig{2, sec(5), 1};
  TwoServiceFixture f(policy);
  FaultRule rule = FaultRule::abort_rule("a", "b", 503);
  rule.max_matches = 2;
  f.install_on_a(rule);

  f.call_once("test-0");
  f.call_once("test-1");  // breaker opens
  f.call_once("test-2");  // short-circuited
  EXPECT_EQ(f.b->instance(0).requests_handled(), 0u);

  // Let the open interval elapse, then probe: the rule is exhausted so the
  // probe succeeds and the breaker closes.
  f.sim.schedule(sec(6), [] {});
  f.sim.run();
  const SimResponse probe = f.call_once("test-3");
  EXPECT_EQ(probe.status, 200);
  EXPECT_EQ(f.b->instance(0).requests_handled(), 1u);
}

TEST(SimPolicyTest, BulkheadRejectsExcessConcurrency) {
  Simulation sim;
  ServiceConfig b;
  b.name = "b";
  b.processing_time = msec(100);  // slow enough to pile up
  sim.add_service(b);
  resilience::CallPolicy policy;
  policy.bulkhead_max_concurrent = 2;
  ServiceConfig a;
  a.name = "a";
  a.dependencies = {"b"};
  a.default_policy = policy;
  sim.add_service(a);

  int ok = 0, failed = 0;
  for (int i = 0; i < 5; ++i) {
    sim.inject("user", "a", SimRequest{.request_id = "test"},
               [&](const SimResponse& r) { r.failed() ? ++failed : ++ok; });
  }
  sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(failed, 3);
}

TEST(SimPolicyTest, SharedPoolSerializesAllDependencies) {
  // One slow dependency starves the fast one through the shared pool.
  Simulation sim;
  ServiceConfig slow;
  slow.name = "slow";
  slow.processing_time = msec(100);
  sim.add_service(slow);
  ServiceConfig fast;
  fast.name = "fast";
  fast.processing_time = msec(1);
  sim.add_service(fast);

  ServiceConfig a;
  a.name = "a";
  a.shared_client_pool = 1;
  a.handler = [](std::shared_ptr<RequestContext> ctx) {
    auto remaining = std::make_shared<int>(2);
    auto done = [ctx, remaining](const SimResponse&) {
      if (--*remaining == 0) ctx->respond(200, "done");
    };
    ctx->call("slow", done);
    ctx->call("fast", done);
  };
  sim.add_service(a);

  TimePoint fast_reply{};
  // Observe when the fast call's response arrives via a's sidecar log.
  sim.inject("user", "a", SimRequest{.request_id = "test-0"},
             [](const SimResponse&) {});
  sim.run();
  auto records = sim.find_service("a")->instance(0).agent()->fetch_records();
  ASSERT_TRUE(records.ok());
  for (const auto& r : *records) {
    if (r.dst == "fast" && r.kind == MessageKind::kResponse) {
      fast_reply = r.timestamp;
    }
  }
  // The fast call had to wait for the slow one (~102ms) before even
  // starting, so its reply lands after the slow call completed.
  EXPECT_GT(fast_reply, msec(100));
}

TEST(SimPolicyTest, PerDependencyBulkheadIsolatesSlowDependency) {
  // Same topology as above, but with isolated pools: the fast call
  // completes immediately.
  Simulation sim;
  ServiceConfig slow;
  slow.name = "slow";
  slow.processing_time = msec(100);
  sim.add_service(slow);
  ServiceConfig fast;
  fast.name = "fast";
  fast.processing_time = msec(1);
  sim.add_service(fast);

  ServiceConfig a;
  a.name = "a";
  resilience::CallPolicy isolated;
  isolated.bulkhead_max_concurrent = 4;
  a.policies["slow"] = isolated;
  a.policies["fast"] = isolated;
  a.handler = [](std::shared_ptr<RequestContext> ctx) {
    auto remaining = std::make_shared<int>(2);
    auto done = [ctx, remaining](const SimResponse&) {
      if (--*remaining == 0) ctx->respond(200, "done");
    };
    ctx->call("slow", done);
    ctx->call("fast", done);
  };
  sim.add_service(a);

  TimePoint fast_reply{};
  sim.inject("user", "a", SimRequest{.request_id = "test-0"},
             [](const SimResponse&) {});
  sim.run();
  auto records = sim.find_service("a")->instance(0).agent()->fetch_records();
  ASSERT_TRUE(records.ok());
  for (const auto& r : *records) {
    if (r.dst == "fast" && r.kind == MessageKind::kResponse) {
      fast_reply = r.timestamp;
    }
  }
  EXPECT_LT(fast_reply, msec(10));
}

TEST(SimPolicyTest, DeterministicReplay) {
  auto run = [](uint64_t seed) {
    SimulationConfig cfg;
    cfg.seed = seed;
    Simulation sim(cfg);
    ServiceConfig b;
    b.name = "b";
    sim.add_service(b);
    ServiceConfig a;
    a.name = "a";
    a.dependencies = {"b"};
    SimService* svc_a = sim.add_service(a);
    FaultRule rule = FaultRule::abort_rule("a", "b", 503, "*", 0.5);
    (void)svc_a->instance(0).agent()->install_rules({rule});
    std::vector<int> statuses;
    for (int i = 0; i < 50; ++i) {
      sim.inject("user", "a", SimRequest{.request_id = "test"},
                 [&](const SimResponse& r) { statuses.push_back(r.status); });
    }
    sim.run();
    return statuses;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

// ------------------------------------------------------ call lifetimes

// A two-hop world whose middle service "a" runs a custom handler that
// exposes its RequestContext through `watch`: the context lives as long as
// a's outbound call to "b" keeps the handler's callback alive.
struct WatchedCallFixture {
  Simulation sim;
  SimService* a = nullptr;
  std::weak_ptr<RequestContext> watch;

  explicit WatchedCallFixture(resilience::CallPolicy policy) {
    ServiceConfig b;
    b.name = "b";
    b.processing_time = msec(1);
    sim.add_service(b);
    ServiceConfig cfg;
    cfg.name = "a";
    cfg.processing_time = kDurationZero;
    cfg.dependencies = {"b"};
    cfg.default_policy = policy;
    cfg.handler = [this](std::shared_ptr<RequestContext> ctx) {
      watch = ctx;
      ctx->call("b", [ctx](const SimResponse& r) {
        ctx->respond(r.failed() ? 500 : 200, "done");
      });
    };
    a = sim.add_service(cfg);
  }
};

TEST(CallLifetimeTest, SettledCallReleasesItsTimeoutClosure) {
  resilience::CallPolicy policy;
  policy.timeout = sec(10);
  WatchedCallFixture f(policy);
  bool expired_at_reply = false;
  TimePoint replied{};
  f.sim.inject("user", "a", SimRequest{.request_id = "test-0"},
               [&](const SimResponse& r) {
                 EXPECT_EQ(r.status, 200);
                 replied = f.sim.now();
                 expired_at_reply = f.watch.expired();
               });
  f.sim.run();
  // Link 0.5 ms, b's 1 ms, link 0.5 ms, then the reply's 0.5 ms link. By
  // then the settled a->b call has cancelled its 10 s timeout, which was
  // the last holder of a's request context.
  EXPECT_EQ(replied, msec(3));
  EXPECT_TRUE(expired_at_reply);
  // The cancelled timeout still pops, as a no-op, at its original time.
  EXPECT_EQ(f.sim.now(), usec(500) + sec(10));
}

TEST(CallLifetimeTest, TimeoutThatWinsIsLoggedAndTheRetryArmsAFreshOne) {
  resilience::CallPolicy policy;
  policy.timeout = msec(200);
  policy.retry.max_retries = 1;
  policy.retry.base_backoff = msec(10);
  WatchedCallFixture f(policy);
  FaultRule rule = FaultRule::delay_rule("a", "b", msec(300));
  rule.max_matches = 1;  // only the first attempt is held past its timeout
  ASSERT_TRUE(f.a->instance(0).agent()->install_rules({rule}).ok());

  SimResponse got;
  f.sim.inject("user", "a", SimRequest{.request_id = "test-0"},
               [&](const SimResponse& r) { got = r; });
  // The retry answers at 212.5 ms and the delayed first attempt's late
  // response arrives at 302.5 ms. Only the retry's timeout, due at
  // 410.5 ms, could still hold the call (and with it a's context) at
  // 350 ms — unless the settled retry cancelled it.
  f.sim.run_until(msec(350));
  EXPECT_EQ(got.status, 200);
  EXPECT_TRUE(f.watch.expired());
  f.sim.run();

  auto records = f.a->instance(0).agent()->fetch_records();
  ASSERT_TRUE(records.ok());
  std::vector<logstore::LogRecord> requests;
  std::vector<logstore::LogRecord> responses;
  for (const auto& r : *records) {
    (r.kind == MessageKind::kRequest ? requests : responses).push_back(r);
  }
  ASSERT_EQ(requests.size(), 2u);
  ASSERT_EQ(responses.size(), 3u);
  const TimePoint attempt_start = requests[0].timestamp;
  EXPECT_EQ(attempt_start, usec(500));
  // The caller gave up at attempt_start + timeout: status 0, latency equal
  // to the timeout.
  EXPECT_EQ(responses[0].status, 0);
  EXPECT_EQ(responses[0].timestamp, attempt_start + msec(200));
  EXPECT_EQ(responses[0].latency, msec(200));
  // The retry left after the backoff and succeeded.
  EXPECT_EQ(requests[1].timestamp, attempt_start + msec(210));
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].timestamp, attempt_start + msec(212));
  // The first attempt's late response is still observed.
  EXPECT_EQ(responses[2].status, 200);
  EXPECT_EQ(responses[2].injected_delay, msec(300));
}

}  // namespace
}  // namespace gremlin::sim
