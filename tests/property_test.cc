// Property-based tests: randomized inputs checked against reference
// implementations and invariants. All randomness is seeded (deterministic).
#include <gtest/gtest.h>

#include "common/glob.h"
#include "common/json.h"
#include "common/rng.h"
#include "faults/rule_engine.h"
#include "httpmsg/parser.h"
#include "sim/simulation.h"

namespace gremlin {
namespace {

// ----------------------------------------------------- glob vs reference

// Exponential-time but obviously-correct reference matcher.
bool ref_glob(std::string_view p, std::string_view t) {
  if (p.empty()) return t.empty();
  if (p[0] == '*') {
    for (size_t k = 0; k <= t.size(); ++k) {
      if (ref_glob(p.substr(1), t.substr(k))) return true;
    }
    return false;
  }
  if (t.empty()) return false;
  if (p[0] == '?' || p[0] == t[0]) return ref_glob(p.substr(1), t.substr(1));
  return false;
}

TEST(GlobPropertyTest, AgreesWithReferenceOnRandomInputs) {
  Rng rng(2026);
  const char alphabet[] = "ab*?";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string pattern, text;
    const int plen = static_cast<int>(rng.next_below(8));
    const int tlen = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(alphabet[rng.next_below(4)]);
    }
    for (int i = 0; i < tlen; ++i) {
      text.push_back(alphabet[rng.next_below(2)]);  // letters only
    }
    EXPECT_EQ(glob_match(pattern, text), ref_glob(pattern, text))
        << "pattern='" << pattern << "' text='" << text << "'";
  }
}

TEST(GlobPropertyTest, StarPrefixAndSuffixInvariants) {
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const int len = static_cast<int>(rng.next_below(12));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.next_below(3)));
    }
    // "<s>*" matches any extension of s; "*<s>" any string ending in s.
    EXPECT_TRUE(glob_match(s + "*", s + "xyz"));
    EXPECT_TRUE(glob_match("*" + s, "xyz" + s));
    EXPECT_TRUE(glob_match("*" + s + "*", "pre" + s + "post"));
  }
}

TEST(GlobPropertyTest, LiteralFastPathMeansExactMatchOnly) {
  // Indexed stores answer is_literal() patterns with a point lookup instead
  // of a scan; that is only sound if such a pattern matches exactly itself.
  Rng rng(1234);
  const char alphabet[] = "ab-*?[\\";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string pattern;
    const int plen = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
    }
    const Glob glob(pattern);
    if (!glob.is_literal()) continue;
    EXPECT_TRUE(glob.matches(pattern)) << "'" << pattern << "'";
    // Any other string must not match: perturb by extension, truncation,
    // and one random flip.
    EXPECT_FALSE(glob.matches(pattern + "x"));
    if (!pattern.empty()) {
      EXPECT_FALSE(glob.matches(pattern.substr(0, pattern.size() - 1)));
      std::string flipped = pattern;
      const size_t pos = rng.next_below(flipped.size());
      flipped[pos] = flipped[pos] == 'z' ? 'y' : 'z';
      EXPECT_FALSE(glob.matches(flipped)) << "'" << pattern << "'";
    }
  }
}

TEST(GlobPropertyTest, LiteralPrefixFastPathEqualsStartsWith) {
  // "test-*"-style patterns take the prefix-range fast path; the reported
  // prefix must make glob_match equivalent to starts_with on any text.
  Rng rng(4321);
  const char alphabet[] = "ab-*?[\\";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string pattern;
    const int plen = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
    }
    const Glob glob(pattern);
    const auto prefix = glob.literal_prefix();
    if (!prefix.has_value()) continue;
    std::string text;
    const int tlen = static_cast<int>(rng.next_below(10));
    for (int i = 0; i < tlen; ++i) {
      text.push_back(alphabet[rng.next_below(2)]);  // letters only
    }
    EXPECT_EQ(glob.matches(text),
              std::string_view(text).substr(0, prefix->size()) == *prefix)
        << "pattern='" << pattern << "' text='" << text << "'";
    // The prefix itself and any extension of it always match.
    EXPECT_TRUE(glob.matches(std::string(*prefix)));
    EXPECT_TRUE(glob.matches(std::string(*prefix) + text));
  }
}

TEST(GlobPropertyTest, FastPathShapesAreMutuallyConsistent) {
  // A pattern is never both literal and prefix-shaped, and either fast path
  // must agree with the general matcher on the pattern stripped of its '*'.
  Rng rng(2025);
  const char alphabet[] = "ab*?";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string pattern;
    const int plen = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(alphabet[rng.next_below(4)]);
    }
    const Glob glob(pattern);
    if (glob.is_literal()) {
      EXPECT_FALSE(glob.literal_prefix().has_value());
    }
    if (const auto prefix = glob.literal_prefix()) {
      EXPECT_EQ(pattern, std::string(*prefix) + "*");
    }
  }
}

// --------------------------------------------- rule engine vs reference

TEST(RuleEnginePropertyTest, MatchesReferenceFirstMatchSemantics) {
  Rng rng(99);
  const std::vector<std::string> services = {"a", "b", "c", "*"};
  const std::vector<std::string> patterns = {"*", "test-*", "prod-*",
                                             "test-1"};
  for (int iter = 0; iter < 200; ++iter) {
    // Random deterministic rule set (probability 1, no match caps).
    std::vector<faults::FaultRule> rules;
    const int count = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < count; ++i) {
      faults::FaultRule r = faults::FaultRule::abort_rule(
          services[rng.next_below(services.size())],
          services[rng.next_below(3)],  // dst: concrete or wildcard via *
          503, patterns[rng.next_below(patterns.size())]);
      r.id = "r" + std::to_string(iter) + "-" + std::to_string(i);
      rules.push_back(std::move(r));
    }
    faults::RuleEngine engine;
    ASSERT_TRUE(engine.add_rules(rules).ok());

    for (const char* id : {"test-1", "test-2", "prod-1", "other"}) {
      for (const char* src : {"a", "b", "c"}) {
        faults::MessageView view;
        view.kind = logstore::MessageKind::kRequest;
        view.src = src;
        view.dst = "b";
        view.request_id = id;
        const auto decision = engine.evaluate(view);

        // Reference: scan rules in order.
        std::string expected_rule;
        for (const auto& r : rules) {
          const bool src_ok = r.source == "*" || r.source == src;
          const bool dst_ok = r.destination == "*" || r.destination == "b";
          const bool id_ok = glob_match(r.pattern, id);
          if (src_ok && dst_ok && id_ok) {
            expected_rule = r.id;
            break;
          }
        }
        EXPECT_EQ(decision.rule_id, expected_rule)
            << "iter=" << iter << " src=" << src << " id=" << id;
      }
    }
  }
}

TEST(RuleEnginePropertyTest, BoundedRuleFiresExactlyMaxMatches) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const uint64_t cap = 1 + rng.next_below(20);
    faults::RuleEngine engine;
    faults::FaultRule r = faults::FaultRule::abort_rule("a", "b", 503);
    r.max_matches = cap;
    ASSERT_TRUE(engine.add_rule(r).ok());
    faults::MessageView view;
    view.kind = logstore::MessageKind::kRequest;
    view.src = "a";
    view.dst = "b";
    view.request_id = "x";
    uint64_t fired = 0;
    for (int i = 0; i < 40; ++i) {
      if (!engine.evaluate(view).none()) ++fired;
    }
    EXPECT_EQ(fired, std::min<uint64_t>(cap, 40));
  }
}

// ------------------------------------------------- JSON random round-trip

Json random_json(Rng* rng, int depth) {
  switch (depth <= 0 ? rng->next_below(4) : rng->next_below(6)) {
    case 0: return Json(nullptr);
    case 1: return Json(rng->next_below(2) == 0);
    case 2: return Json(static_cast<int64_t>(rng->uniform(-1000000, 1000000)));
    case 3: {
      std::string s;
      const int len = static_cast<int>(rng->next_below(10));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng->next_below(95)));
      }
      return Json(std::move(s));
    }
    case 4: {
      Json arr = Json::array();
      const int len = static_cast<int>(rng->next_below(4));
      for (int i = 0; i < len; ++i) {
        arr.push_back(random_json(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      const int len = static_cast<int>(rng->next_below(4));
      for (int i = 0; i < len; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth - 1);
      }
      return obj;
    }
  }
}

TEST(JsonPropertyTest, DumpParseRoundTripOnRandomDocuments) {
  Rng rng(321);
  for (int iter = 0; iter < 500; ++iter) {
    const Json doc = random_json(&rng, 3);
    for (const int indent : {0, 2}) {
      auto reparsed = Json::parse(doc.dump(indent));
      ASSERT_TRUE(reparsed.ok()) << doc.dump();
      EXPECT_EQ(reparsed.value(), doc);
    }
  }
}

// ------------------------------------------------ HTTP parser fuzzing

TEST(ParserFuzzTest, MutatedMessagesNeverCrashOrOverread) {
  Rng rng(777);
  const std::string base =
      "POST /api/search?q=x HTTP/1.1\r\nHost: svc:8080\r\n"
      "X-Gremlin-ID: test-123\r\nContent-Length: 11\r\n\r\nhello world";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.next_below(256));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a byte
          mutated.insert(pos, 1, mutated[pos]);
      }
    }
    httpmsg::Parser parser(httpmsg::Parser::Kind::kRequest);
    // Feed in random-sized chunks; must consume monotonically and never
    // throw / crash.
    size_t offset = 0;
    while (offset < mutated.size()) {
      const size_t chunk = 1 + rng.next_below(17);
      const std::string_view piece =
          std::string_view(mutated).substr(offset, chunk);
      auto consumed = parser.feed(piece);
      if (!consumed.ok()) break;  // malformed: rejected cleanly
      ASSERT_LE(consumed.value(), piece.size());
      if (consumed.value() == 0 && parser.complete()) break;
      if (consumed.value() == 0 &&
          parser.state() == httpmsg::Parser::State::kError) {
        break;
      }
      offset += consumed.value();
      if (parser.complete()) break;
    }
  }
}

TEST(ParserFuzzTest, ChunkingNeverChangesTheResult) {
  Rng rng(31337);
  const std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
  httpmsg::Parser whole(httpmsg::Parser::Kind::kResponse);
  ASSERT_TRUE(whole.feed(wire).ok());
  ASSERT_TRUE(whole.complete());
  const std::string expected = whole.response().body;

  for (int iter = 0; iter < 300; ++iter) {
    httpmsg::Parser parser(httpmsg::Parser::Kind::kResponse);
    size_t offset = 0;
    while (offset < wire.size()) {
      const size_t chunk = 1 + rng.next_below(9);
      auto consumed = parser.feed(
          std::string_view(wire).substr(offset, chunk));
      ASSERT_TRUE(consumed.ok());
      offset += consumed.value();
    }
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.response().body, expected);
  }
}

// ------------------------------------------ simulator latency composition

TEST(SimPropertyTest, ChainLatencyIsAdditive) {
  // For a linear chain of depth N with fixed processing and link times,
  // end-to-end latency must equal sum(processing) + 2*N*link.
  for (const int depth : {1, 2, 4, 8}) {
    sim::SimulationConfig cfg;
    cfg.default_network_latency = usec(500);
    sim::Simulation sim(cfg);
    for (int i = depth - 1; i >= 0; --i) {
      sim::ServiceConfig svc;
      svc.name = "s" + std::to_string(i);
      svc.processing_time = msec(2);
      if (i + 1 < depth) svc.dependencies = {"s" + std::to_string(i + 1)};
      sim.add_service(svc);
    }
    TimePoint done{};
    sim.inject("user", "s0", sim::SimRequest{.request_id = "t"},
               [&](const sim::SimResponse& resp) {
                 EXPECT_EQ(resp.status, 200);
                 done = sim.now();
               });
    sim.run();
    // Edges: user->s0, s0->s1, ..., s(depth-2)->s(depth-1) = depth edges,
    // each crossed twice (request + response) at 500us per crossing.
    const Duration hops = usec(500) * (2 * depth);
    EXPECT_EQ(done, msec(2) * depth + hops) << "depth=" << depth;
  }
}

TEST(SimPropertyTest, InjectedDelayAddsExactlyOnEveryTopology) {
  Rng rng(11);
  for (int iter = 0; iter < 10; ++iter) {
    const int depth = 2 + static_cast<int>(rng.next_below(3));
    const int edge = static_cast<int>(rng.next_below(depth - 1));
    const Duration delay = msec(50 + static_cast<int64_t>(
                                         rng.next_below(500)));

    auto run_once = [&](bool with_fault) {
      sim::Simulation sim;
      for (int i = depth - 1; i >= 0; --i) {
        sim::ServiceConfig svc;
        svc.name = "s" + std::to_string(i);
        svc.processing_time = msec(1);
        if (i + 1 < depth) svc.dependencies = {"s" + std::to_string(i + 1)};
        sim.add_service(svc);
      }
      if (with_fault) {
        faults::FaultRule rule = faults::FaultRule::delay_rule(
            "s" + std::to_string(edge), "s" + std::to_string(edge + 1),
            delay);
        auto* svc = sim.find_service("s" + std::to_string(edge));
        EXPECT_TRUE(svc->instance(0).agent()->install_rules({rule}).ok());
      }
      TimePoint done{};
      sim.inject("user", "s0", sim::SimRequest{.request_id = "t"},
                 [&](const sim::SimResponse&) { done = sim.now(); });
      sim.run();
      return done;
    };
    const TimePoint base = run_once(false);
    const TimePoint faulted = run_once(true);
    EXPECT_EQ(faulted - base, delay)
        << "depth=" << depth << " edge=" << edge;
  }
}

}  // namespace
}  // namespace gremlin
