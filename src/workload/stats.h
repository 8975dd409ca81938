// Latency statistics helpers used by campaign reports, the figure
// generators and examples: summaries, percentiles, and CDF series matching
// the paper's figures.
//
// Two flavours: the batch helpers (summarize/percentile) sort a full copy
// of the sample — exact, but O(n) memory, unusable for the 10⁶-request
// mega-topology campaigns. StreamingQuantile/StreamingSummary keep O(1)
// state per statistic (the P² algorithm, Jain & Chlamtac 1985) with
// percentile error pinned by streaming_stats_test.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/duration.h"

namespace gremlin::workload {

struct Summary {
  size_t count = 0;
  Duration min{};
  Duration max{};
  Duration mean{};
  Duration p50{};
  Duration p90{};
  Duration p99{};
};

Summary summarize(std::vector<Duration> latencies);

// One P² marker set: estimates a single percentile of an unbounded stream
// in constant space (five marker heights + positions). Exact while the
// stream holds ≤ 5 observations; piecewise-parabolic interpolation after.
class StreamingQuantile {
 public:
  // `pct` in (0, 100), e.g. 99 for P99.
  explicit StreamingQuantile(double pct);

  void add(double value);
  void add(Duration d) { add(static_cast<double>(d.count())); }

  double estimate() const;
  Duration estimate_duration() const {
    return Duration(static_cast<int64_t>(estimate()));
  }
  size_t count() const { return n_; }

 private:
  double p_;                       // target quantile in (0, 1)
  size_t n_ = 0;                   // observations absorbed
  std::array<double, 5> q_{};      // marker heights
  std::array<double, 5> pos_{};    // actual marker positions (1-based)
  std::array<double, 5> want_{};   // desired marker positions
  std::array<double, 5> inc_{};    // desired-position increments
};

// Constant-space replacement for summarize(): count/min/max/mean exactly,
// p50/p90/p99 via P². A 10⁶-request campaign carries ~200 bytes of state
// instead of an 8 MB latency vector.
class StreamingSummary {
 public:
  void add(Duration d);
  size_t count() const { return count_; }
  Summary summary() const;

 private:
  size_t count_ = 0;
  int64_t total_ = 0;
  Duration min_{};
  Duration max_{};
  StreamingQuantile p50_{50};
  StreamingQuantile p90_{90};
  StreamingQuantile p99_{99};
};

// Percentile in [0,100] by nearest-rank on a copy of the data.
Duration percentile(std::vector<Duration> latencies, double pct);

// Empirical CDF as (seconds, cumulative fraction) points, ascending. When
// max_points > 0 the series is downsampled evenly to that many points.
std::vector<std::pair<double, double>> cdf_points(
    const std::vector<Duration>& latencies, size_t max_points = 0);

// Renders a fixed-width table of CDF rows: "<seconds>\t<fraction>".
std::string format_cdf(const std::vector<Duration>& latencies,
                       size_t max_points = 20);

}  // namespace gremlin::workload
