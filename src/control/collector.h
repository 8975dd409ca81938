// LogCollector: the background log-shipping pipeline.
//
// Section 6 uses logstash to stream agent logs into Elasticsearch
// continuously; TestSession::collect() is the synchronous equivalent for
// simulated runs. This collector covers the real-proxy path: a thread that
// periodically drains every agent in a Deployment into the central
// LogStore, so assertions can run while traffic is still flowing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "logstore/store.h"
#include "sim/simulation.h"
#include "topology/deployment.h"

namespace gremlin::control {

class LogCollector {
 public:
  LogCollector(topology::Deployment* deployment, logstore::LogStore* store,
               Duration interval = msec(200))
      : deployment_(deployment), store_(store), interval_(interval) {}

  ~LogCollector() { stop(); }

  LogCollector(const LogCollector&) = delete;
  LogCollector& operator=(const LogCollector&) = delete;

  void start();

  // Stops the thread after a final drain, so no buffered observation is
  // lost.
  void stop();

  // One synchronous drain (also usable without start()).
  VoidResult collect_once();

  uint64_t collections() const { return collections_.load(); }
  uint64_t records_shipped() const { return records_shipped_.load(); }

 private:
  void run();

  topology::Deployment* deployment_;
  logstore::LogStore* store_;
  Duration interval_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> collections_{0};
  std::atomic<uint64_t> records_shipped_{0};
};

// SimStreamCollector: the simulated counterpart of LogCollector, feeding an
// experiment's check state machines. Instead of a background thread, it
// schedules a recurring *virtual-time* drain event on the simulation: each
// drain moves every agent's buffered observations out, merges them into one
// chronologically-sorted batch (stable on ties, so agent order breaks them
// deterministically), and hands the batch to its sink.
//
// The drain cadence adapts to the timeline: the next drain is scheduled at
// max(now + interval, next pending event), so sparse timelines (an hour-long
// Hang horizon with nothing in between) cost one drain per event burst
// instead of hundreds of thousands of empty wakeups. Drains touch no RNG and
// no application state, so a streamed run stays deterministic. The collector
// stops rescheduling once the sim has a stop request or no pending events;
// call drain_now() after the run for the final flush.
class SimStreamCollector {
 public:
  // Receives each non-empty drained batch, time-sorted.
  using Sink = std::function<void(logstore::RecordList&& batch)>;

  SimStreamCollector(sim::Simulation* sim, Sink sink,
                     Duration interval = msec(5))
      : sim_(sim), sink_(std::move(sink)), interval_(interval) {}

  SimStreamCollector(const SimStreamCollector&) = delete;
  SimStreamCollector& operator=(const SimStreamCollector&) = delete;

  // Schedules the first drain. The collector must outlive the run.
  void start();

  // Synchronous final drain (after run_load returns or stops early).
  void drain_now();

  size_t drains() const { return drains_; }
  size_t records_streamed() const { return records_streamed_; }

 private:
  void drain();
  void arm();

  sim::Simulation* sim_;
  Sink sink_;
  Duration interval_;
  logstore::RecordList batch_;  // reused across drains
  size_t drains_ = 0;
  size_t records_streamed_ = 0;
};

}  // namespace gremlin::control
