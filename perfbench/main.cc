// perfbench: one benchmark process for one workload.
//
//   perfbench --workload tree-assert|mega-mixed|search-k2 --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]
//
// Prints one JSON object on its last line of standard output: the metrics
// with their units, the counts and digests the correctness gate compares,
// experiments attempted and failed, any failed self-check, and host
// metadata. perfbench/run.py builds this binary, compares the digests with
// perfbench/reference.json and prints the benchmark's result line.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Outcome;

// JSON string escaping for the few free-text fields (ids, problems).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Time of a fixed integer loop: host metadata only. The loop's time does
// not track workload time on a shared host, so no metric is normalized
// by it.
double calibration_ms() {
  const double t0 = perfbench::now_s();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = (perfbench::now_s() - t0) * 1e3;
  volatile uint64_t sink = x;
  (void)sink;
  return ms;
}

std::string host_json() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::string out = "{\"nproc\": ";
  out += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"loadavg\": [" + number(load[0]) + ", " + number(load[1]) +
         ", " + number(load[2]) + "]";
  out += ", \"calibration_ms\": " + number(calibration_ms()) + "}";
  return out;
}

std::string outcome_json(const Outcome& o, const std::string& host) {
  std::string out = "{\"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(o.metrics[i].name) + ": {\"value\": " +
           number(o.metrics[i].value) +
           ", \"unit\": " + quoted(o.metrics[i].unit) + "}";
  }
  out += "}, \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : o.counts) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": " + std::to_string(value);
  }
  out += "}, \"digests\": {";
  first = true;
  for (const auto& [name, value] : o.digests) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": " + quoted(value);
  }
  out += "}, \"problems\": [";
  for (size_t i = 0; i < o.problems.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(o.problems[i]);
  }
  out += "], \"batch_walls\": [";
  for (size_t i = 0; i < o.batch_walls.size(); ++i) {
    if (i > 0) out += ", ";
    out += number(o.batch_walls[i]);
  }
  out += "], \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"host\": " + host + "}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tree-assert|mega-mixed|search-k2 "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  perfbench::Size size = perfbench::Size::kFull;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--size") == 0 && has_value) {
      const std::string s = argv[++i];
      if (s != "full" && s != "tiny") return usage();
      size = s == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
    } else if (std::strcmp(argv[i], "--spans") == 0 && has_value) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!perfbench::known_workload(workload)) return usage();

  const std::string host_before = host_json();
  const Outcome outcome =
      trace ? perfbench::run_traced(workload, seed, size, spans_path)
            : perfbench::run_untraced(workload, seed, size, seconds);
  std::printf("%s\n", outcome_json(outcome, host_before).c_str());
  return 0;
}
