// Wire serialization tests: varint/zigzag/string primitives, frame
// reassembly from arbitrarily chunked reads, and the ExperimentResult
// codec round trip — every field that feeds fingerprint() or
// verdict_fingerprint() must survive the process boundary bit-for-bit.
// A seeded fuzz loop hammers the codec with adversarial field contents
// (embedded NULs, newlines, long strings, extreme tick counts).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "campaign/result_codec.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "common/wire.h"

namespace gremlin::campaign {
namespace {

TEST(WireTest, VarintRoundTripEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             0x7f,
                             0x80,
                             0x3fff,
                             0x4000,
                             UINT32_MAX,
                             uint64_t{1} << 56,
                             std::numeric_limits<uint64_t>::max()};
  wire::Writer w;
  for (const uint64_t v : values) w.u64(v);
  wire::Reader r(w.buffer());
  for (const uint64_t v : values) EXPECT_EQ(r.u64(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, ZigzagRoundTripSignedExtremes) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  wire::Writer w;
  for (const int64_t v : values) w.i64(v);
  wire::Reader r(w.buffer());
  for (const int64_t v : values) EXPECT_EQ(r.i64(), v);
  EXPECT_TRUE(r.ok());
  // Small magnitudes of either sign must stay short: -1 encodes in 1 byte.
  wire::Writer small;
  small.i64(-1);
  EXPECT_EQ(small.size(), 1u);
}

TEST(WireTest, StringsCarryArbitraryBytes) {
  const std::string nasty("a\0b\nc\"\\\xff", 8);
  wire::Writer w;
  w.str(nasty);
  w.str("");
  w.str(std::string(100000, 'x'));
  wire::Reader r(w.buffer());
  EXPECT_EQ(r.str(), nasty);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(100000, 'x'));
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, TruncatedReadsFailSoftNotLoud) {
  wire::Writer w;
  w.u64(300);
  w.str("hello");
  const std::string& bytes = w.buffer();
  // Every proper prefix must decode to !ok(), never crash or loop.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Reader r(std::string_view(bytes).substr(0, cut));
    (void)r.u64();
    (void)r.str();
    EXPECT_FALSE(r.ok()) << "prefix length " << cut;
  }
}

TEST(WireTest, StringLengthBeyondBufferFails) {
  wire::Writer w;
  w.u64(1000);  // claims 1000 bytes follow
  w.str("x");
  wire::Reader r(w.buffer());
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(FrameBufferTest, ReassemblesFromSingleByteChunks) {
  std::string stream;
  const std::vector<std::string> payloads = {"", "a", std::string(5000, 'z'),
                                             std::string("\0\1\2", 3)};
  for (const auto& p : payloads) {
    const uint32_t n = static_cast<uint32_t>(p.size());
    char hdr[4] = {static_cast<char>(n), static_cast<char>(n >> 8),
                   static_cast<char>(n >> 16), static_cast<char>(n >> 24)};
    stream.append(hdr, 4);
    stream.append(p);
  }

  // Feed one byte at a time — the worst chunking a pipe can produce.
  wire::FrameBuffer fb;
  std::vector<std::string> got;
  std::string payload;
  for (const char c : stream) {
    fb.append(&c, 1);
    while (fb.next(&payload)) got.push_back(payload);
  }
  EXPECT_FALSE(fb.corrupt());
  EXPECT_EQ(fb.pending(), 0u);
  ASSERT_EQ(got.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(FrameBufferTest, OversizedLengthPrefixIsCorruption) {
  const char hdr[4] = {'\xff', '\xff', '\xff', '\xff'};  // ~4 GiB frame
  wire::FrameBuffer fb;
  fb.append(hdr, 4);
  std::string payload;
  EXPECT_FALSE(fb.next(&payload));
  EXPECT_TRUE(fb.corrupt());
  // A corrupt stream never yields frames again.
  const char more[8] = {4, 0, 0, 0, 'a', 'b', 'c', 'd'};
  fb.append(more, 8);
  EXPECT_FALSE(fb.next(&payload));
}

ExperimentResult sample_result() {
  ExperimentResult r;
  r.id = "abort(svc0->svc2)";
  r.seed = 42;
  r.ok = true;
  r.rules_installed = 3;
  control::CheckResult failing;
  failing.name = "max_user_failures<=0";
  failing.passed = false;
  failing.detail = "7 user-visible failures";
  control::CheckResult passing;
  passing.name = "bounded_latency";
  passing.passed = true;
  r.checks = {failing, passing};
  r.checks_passed = 1;
  r.requests = 40;
  r.failures = 7;
  r.latencies = {usec(1500), usec(250000), usec(0)};
  r.statuses = {200, 503, 200};
  r.early_terminated = true;
  return r;
}

TEST(ResultCodecTest, RoundTripPreservesFingerprints) {
  const ExperimentResult original = sample_result();
  ExperimentResult decoded;
  ASSERT_TRUE(decode_result(encode_result(original), &decoded));

  EXPECT_EQ(decoded.fingerprint(), original.fingerprint());
  EXPECT_EQ(decoded.verdict_fingerprint(), original.verdict_fingerprint());
  EXPECT_EQ(decoded.id, original.id);
  EXPECT_EQ(decoded.seed, original.seed);
  EXPECT_EQ(decoded.early_terminated, original.early_terminated);
  EXPECT_EQ(decoded.checks_passed, 1u);
  ASSERT_EQ(decoded.checks.size(), 2u);
  EXPECT_EQ(decoded.checks[0].detail, "7 user-visible failures");
  EXPECT_EQ(control::failure_signature(decoded.checks),
            control::failure_signature(original.checks));
  ASSERT_EQ(decoded.latencies.size(), 3u);
  EXPECT_EQ(decoded.latencies[1], usec(250000));
}

TEST(ResultCodecTest, RoundTripPreservesErrorResults) {
  ExperimentResult original;
  original.id = "crash(svc3)";
  original.seed = 7;
  original.ok = false;
  original.error = "translate failed: no such edge \"svc9->svc3\"\n";
  ExperimentResult decoded;
  ASSERT_TRUE(decode_result(encode_result(original), &decoded));
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, original.error);
  EXPECT_EQ(decoded.fingerprint(), original.fingerprint());
}

TEST(ResultCodecTest, RejectsVersionSkewAndTruncation) {
  std::string bytes = encode_result(sample_result());
  ExperimentResult decoded;

  std::string skewed = bytes;
  skewed[0] = static_cast<char>(kResultWireVersion + 1);
  EXPECT_FALSE(decode_result(skewed, &decoded));

  for (const size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                           bytes.size() - 1}) {
    EXPECT_FALSE(
        decode_result(std::string_view(bytes).substr(0, cut), &decoded))
        << "prefix length " << cut;
  }

  // Trailing garbage after a valid result is also a framing error.
  EXPECT_FALSE(decode_result(bytes + "x", &decoded));
}

TEST(ResultCodecTest, CampaignFingerprintSurvivesTheBoundary) {
  // A whole campaign shipped result-by-result (exactly what the process
  // pool does) reproduces both campaign-level digests.
  CampaignResult original;
  original.experiments.push_back(sample_result());
  ExperimentResult errored;
  errored.id = "delay(svc1->svc3)";
  errored.seed = 43;
  errored.ok = false;
  errored.error = "install failed";
  original.experiments.push_back(errored);

  CampaignResult rebuilt;
  for (const auto& e : original.experiments) {
    ExperimentResult decoded;
    ASSERT_TRUE(decode_result(encode_result(e), &decoded));
    rebuilt.experiments.push_back(std::move(decoded));
  }
  EXPECT_EQ(rebuilt.fingerprint(), original.fingerprint());
  EXPECT_EQ(rebuilt.verdict_fingerprint(), original.verdict_fingerprint());
  EXPECT_EQ(rebuilt.passed(), original.passed());
  EXPECT_EQ(rebuilt.errors(), original.errors());
}

std::string fuzz_string(Rng* rng) {
  const size_t len = rng->next_below(64);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->next_below(256)));
  }
  return s;
}

TEST(ResultCodecTest, SeededFuzzRoundTrip) {
  Rng rng(0xf00dface);
  for (int iter = 0; iter < 500; ++iter) {
    ExperimentResult r;
    r.id = fuzz_string(&rng);
    r.seed = rng.next_u64();
    r.ok = rng.bernoulli(0.8);
    if (!r.ok) r.error = fuzz_string(&rng);
    r.rules_installed = rng.next_below(100);
    const size_t checks = rng.next_below(5);
    for (size_t i = 0; i < checks; ++i) {
      control::CheckResult c;
      c.name = fuzz_string(&rng);
      c.passed = rng.bernoulli(0.5);
      c.detail = fuzz_string(&rng);
      if (c.passed) ++r.checks_passed;
      r.checks.push_back(std::move(c));
    }
    r.requests = rng.next_below(1000);
    r.failures = rng.next_below(r.requests + 1);
    const size_t samples = rng.next_below(20);
    for (size_t i = 0; i < samples; ++i) {
      r.latencies.push_back(Duration(static_cast<int64_t>(rng.next_u64())));
      r.statuses.push_back(static_cast<int>(rng.next_below(600)));
    }
    r.early_terminated = rng.bernoulli(0.3);

    ExperimentResult decoded;
    ASSERT_TRUE(decode_result(encode_result(r), &decoded)) << "iter " << iter;
    ASSERT_EQ(decoded.fingerprint(), r.fingerprint()) << "iter " << iter;
    ASSERT_EQ(decoded.verdict_fingerprint(), r.verdict_fingerprint())
        << "iter " << iter;
  }
}

TEST(ResultCodecTest, FuzzDecodeOfRandomBytesNeverCrashes) {
  Rng rng(0xdec0de);
  ExperimentResult sink;
  for (int iter = 0; iter < 500; ++iter) {
    std::string bytes = fuzz_string(&rng);
    if (rng.bernoulli(0.5)) {
      bytes.insert(bytes.begin(), static_cast<char>(kResultWireVersion));
    }
    (void)decode_result(bytes, &sink);  // must not crash, hang, or throw
  }
}

TEST(ResultCodecTest, RejectsPreVocabularyFrames) {
  // v1 frames predate the fault-vocabulary extension; a binary that still
  // speaks v1 must be refused loudly rather than silently merged.
  ASSERT_GE(kResultWireVersion, 2);
  std::string bytes = encode_result(sample_result());
  bytes[0] = 1;
  ExperimentResult decoded;
  EXPECT_FALSE(decode_result(bytes, &decoded));
}

}  // namespace
}  // namespace gremlin::campaign
