// ExperimentResult wire codec: the payload format multi-process campaign
// sharding ships over worker pipes (src/campaign/process_pool).
//
// The encoding is exact — every field that feeds fingerprint() or
// verdict_fingerprint() survives a round trip bit-for-bit (Durations as
// tick counts, strings as raw bytes), so a campaign merged from worker
// processes is byte-identical to one run in a single process. The format
// is versioned: decode rejects frames whose version byte it does not
// understand instead of guessing, turning a skew between parent and worker
// binaries into a loud infrastructure error (impossible under fork, which
// is the only producer today, but cheap insurance).
//
// tests/wire_test.cc enforces the round-trip contract with a seeded fuzz
// loop over adversarial field contents.
#pragma once

#include <string>
#include <string_view>

#include "campaign/runner.h"
#include "common/wire.h"

namespace gremlin::campaign {

// Bump when the field layout changes. v2: the fault-vocabulary extension
// (rules with probabilities, delay distributions, activation windows, and
// infra-level scenarios) changed what campaigns produce; rejecting v1
// frames keeps a skewed binary from silently merging results computed under
// the old vocabulary.
inline constexpr uint8_t kResultWireVersion = 3;  // v3: snapshot stats

// Appends the versioned encoding of `result` to `w`.
void encode_result(const ExperimentResult& result, wire::Writer* w);

// Decodes one ExperimentResult; false on truncation, trailing garbage
// within the consumed fields, or a version mismatch.
bool decode_result(wire::Reader* r, ExperimentResult* result);

// Whole-buffer conveniences.
std::string encode_result(const ExperimentResult& result);
bool decode_result(std::string_view bytes, ExperimentResult* result);

}  // namespace gremlin::campaign
