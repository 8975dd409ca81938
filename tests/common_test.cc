// Unit tests for the common module: durations, glob matching, strings,
// deterministic RNG, and the JSON document model.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "common/duration.h"
#include "common/glob.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"

namespace gremlin {
namespace {

// ---------------------------------------------------------------- Duration

TEST(DurationTest, ParsesAllUnits) {
  EXPECT_EQ(parse_duration("250us").value(), usec(250));
  EXPECT_EQ(parse_duration("100ms").value(), msec(100));
  EXPECT_EQ(parse_duration("1s").value(), sec(1));
  EXPECT_EQ(parse_duration("3sec").value(), sec(3));
  EXPECT_EQ(parse_duration("1min").value(), minutes(1));
  EXPECT_EQ(parse_duration("2m").value(), minutes(2));
  EXPECT_EQ(parse_duration("1h").value(), hours(1));
  EXPECT_EQ(parse_duration("2hours").value(), hours(2));
}

TEST(DurationTest, ParsesFractions) {
  EXPECT_EQ(parse_duration("1.5s").value(), msec(1500));
  EXPECT_EQ(parse_duration("0.25ms").value(), usec(250));
}

TEST(DurationTest, RejectsGarbage) {
  EXPECT_FALSE(parse_duration("").ok());
  EXPECT_FALSE(parse_duration("ms").ok());
  EXPECT_FALSE(parse_duration("5").ok());
  EXPECT_FALSE(parse_duration("5parsecs").ok());
  EXPECT_FALSE(parse_duration("abc").ok());
}

TEST(DurationTest, FormatsLargestExactUnit) {
  EXPECT_EQ(format_duration(hours(1)), "1h");
  EXPECT_EQ(format_duration(minutes(90)), "90min");
  EXPECT_EQ(format_duration(sec(3)), "3s");
  EXPECT_EQ(format_duration(msec(100)), "100ms");
  EXPECT_EQ(format_duration(usec(250)), "250us");
  EXPECT_EQ(format_duration(kDurationZero), "0s");
}

TEST(DurationTest, ParseFormatRoundTrip) {
  for (const char* text : {"250us", "100ms", "3s", "5min", "2h"}) {
    auto parsed = parse_duration(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(format_duration(parsed.value()), text);
  }
}

// -------------------------------------------------------------------- Glob

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

// Printed into the discovered test names; the default byte dump of the
// struct would embed pointer values that change from build to build.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << '"' << c.pattern << "\" vs \"" << c.text << "\" "
      << (c.expect ? "matches" : "does not match");
}

class GlobMatchTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatchTest, Matches) {
  const GlobCase& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << "pattern=" << c.pattern << " text=" << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatchTest,
    ::testing::Values(
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"test-*", "test-123", true},
        GlobCase{"test-*", "test-", true},
        GlobCase{"test-*", "prod-123", false},
        GlobCase{"*-123", "test-123", true},
        GlobCase{"*-123", "test-1234", false},
        GlobCase{"a*b*c", "aXbYc", true}, GlobCase{"a*b*c", "abc", true},
        GlobCase{"a*b*c", "acb", false},
        GlobCase{"?", "x", true}, GlobCase{"?", "", false},
        GlobCase{"?", "xy", false},
        GlobCase{"test-??", "test-42", true},
        GlobCase{"test-??", "test-4", false},
        GlobCase{"[abc]x", "bx", true}, GlobCase{"[abc]x", "dx", false},
        GlobCase{"[a-z]*", "hello", true},
        GlobCase{"[a-z]*", "Hello", false},
        GlobCase{"[!0-9]*", "x1", true}, GlobCase{"[!0-9]*", "11", false},
        GlobCase{"\\*", "*", true}, GlobCase{"\\*", "x", false},
        GlobCase{"test-*-end", "test-mid-end", true},
        GlobCase{"test-*-end", "test-end", false},
        GlobCase{"**", "anything", true},
        GlobCase{"", "", true}, GlobCase{"", "x", false}));

TEST(GlobTest, MatchAllDetection) {
  EXPECT_TRUE(Glob("*").match_all());
  EXPECT_FALSE(Glob("test-*").match_all());
  EXPECT_TRUE(Glob().match_all());
}

// Property: a pattern equal to the literal text (no metacharacters) always
// matches exactly that text.
TEST(GlobTest, LiteralPatternsMatchThemselves) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string s;
    const int len = static_cast<int>(rng.next_below(12));
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.next_below(26)));
    }
    EXPECT_TRUE(glob_match(s, s)) << s;
    EXPECT_EQ(glob_match(s, s + "x"), false) << s;
  }
}

// ----------------------------------------------------------------- Strings

TEST(StringsTest, Basics) {
  EXPECT_EQ(to_lower("AbC-1"), "abc-1");
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("gremlin-agent", "gremlin"));
  EXPECT_FALSE(starts_with("gr", "gremlin"));
  EXPECT_TRUE(ends_with("request_id", "_id"));
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(join({"a", "b", "c"}, "->"), "a->b->c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, Replace) {
  std::string s = "key=value key=value";
  EXPECT_TRUE(replace_first(&s, "key", "badkey"));
  EXPECT_EQ(s, "badkey=value key=value");
  s = "key=value key=value";
  EXPECT_EQ(replace_all(&s, "key", "badkey"), 2);
  EXPECT_EQ(s, "badkey=value badkey=value");
  EXPECT_EQ(replace_all(&s, "missing", "x"), 0);
  EXPECT_FALSE(replace_first(&s, "", "x"));
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng base(9);
  Rng a = base.fork("agent-a");
  Rng b = base.fork("agent-b");
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, BernoulliRespectsExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyNearP) {
  Rng rng(2);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  const double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);  // all values hit over 1000 draws
}

TEST(RngTest, ExponentialMean) {
  Rng rng(4);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(100.0);
  EXPECT_NEAR(total / n, 100.0, 5.0);
}

// -------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_EQ(Json::parse("true").value().as_bool(), true);
  EXPECT_EQ(Json::parse("false").value().as_bool(true), false);
  EXPECT_EQ(Json::parse("42").value().as_int(), 42);
  EXPECT_EQ(Json::parse("-7").value().as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").value().as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").value().as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonTest, ParsesNested) {
  auto j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()["a"].size(), 3u);
  EXPECT_EQ(j.value()["a"].as_array()[2]["b"].as_string(), "c");
  EXPECT_TRUE(j.value()["d"].is_null());
  EXPECT_TRUE(j.value().contains("d"));
  EXPECT_FALSE(j.value().contains("missing"));
}

TEST(JsonTest, StringEscapes) {
  auto j = Json::parse(R"("line\n\t\"quote\" \\ A")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().as_string(), "line\n\t\"quote\" \\ A");
}

TEST(JsonTest, UnicodeEscapeUtf8) {
  auto j = Json::parse(R"("é€")");  // é €
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("-").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj["name"] = "gremlin";
  obj["count"] = 42;
  obj["ratio"] = 0.25;
  obj["flag"] = true;
  obj["nothing"] = nullptr;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obj["list"] = arr;

  for (int indent : {0, 2}) {
    auto reparsed = Json::parse(obj.dump(indent));
    ASSERT_TRUE(reparsed.ok()) << "indent=" << indent;
    EXPECT_EQ(reparsed.value(), obj);
  }
}

TEST(JsonTest, MissingKeyReturnsNull) {
  const Json obj = Json::object();
  EXPECT_TRUE(obj["anything"].is_null());
  const Json arr = Json::array();
  EXPECT_TRUE(arr["key"].is_null());  // non-object access is safe
}

}  // namespace
}  // namespace gremlin
