#include "control/collector.h"

#include <algorithm>
#include <iterator>

namespace gremlin::control {

void LogCollector::start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard lock(mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void LogCollector::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  (void)collect_once();  // final drain
}

VoidResult LogCollector::collect_once() {
  for (const auto& agent : deployment_->all_agents()) {
    // drain_records moves in-process buffers out; append_all(&&) moves them
    // into the store — the records themselves are never copied.
    auto records = agent->drain_records();
    if (!records.ok()) return records.error();
    if (!records->empty()) {
      records_shipped_.fetch_add(records->size());
      store_->append_all(std::move(records.value()));
    }
  }
  collections_.fetch_add(1);
  return VoidResult::success();
}

void LogCollector::run() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    lock.unlock();
    (void)collect_once();
    lock.lock();
    cv_.wait_for(lock, interval_, [this] { return stopping_; });
  }
}

void SimStreamCollector::start() { arm(); }

void SimStreamCollector::drain() {
  batch_.clear();
  // Per-agent buffers are individually time-ordered (sidecars stamp
  // sim().now(), which is monotone). Concatenate in the deployment's
  // deterministic agent order, then stable-sort by timestamp: ties keep
  // agent order, so the merged stream is a deterministic total order.
  size_t sorted_prefix = 0;
  for (const auto& agent : sim_->deployment().all_agents()) {
    auto records = agent->drain_records();
    if (!records.ok() || records->empty()) continue;
    batch_.insert(batch_.end(),
                  std::make_move_iterator(records->begin()),
                  std::make_move_iterator(records->end()));
    if (sorted_prefix == 0) sorted_prefix = batch_.size();
  }
  if (batch_.size() > sorted_prefix) {
    std::stable_sort(batch_.begin(), batch_.end(),
                     [](const logstore::LogRecord& a,
                        const logstore::LogRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  ++drains_;
  if (batch_.empty()) return;
  records_streamed_ += batch_.size();
  sink_(std::move(batch_));
  batch_ = logstore::RecordList{};
}

void SimStreamCollector::arm() {
  // Stop rescheduling when the run is over (stop requested) or the timeline
  // has nothing left — a recurring event would otherwise keep run() alive
  // forever. The tail of the stream is flushed by drain_now().
  if (sim_->stop_requested() || !sim_->has_pending_events()) return;
  TimePoint at = sim_->now() + interval_;
  const TimePoint next_event = sim_->next_event_time();
  if (next_event > at) at = next_event;  // skip idle gaps in sparse timelines
  sim_->schedule_at(at, [this] {
    drain();
    arm();
  });
}

void SimStreamCollector::drain_now() { drain(); }

}  // namespace gremlin::control
