// Tests for the pooled event queue (sim/event_queue.h): deterministic
// (time, sequence) ordering, FIFO ties at the same timestamp, free-list
// recycling, and the clear() contract that back-to-back runs on a reused
// queue replay identically.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace gremlin::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(TimePoint{msec(30)}, [&order] { order.push_back(3); });
  queue.schedule_at(TimePoint{msec(10)}, [&order] { order.push_back(1); });
  queue.schedule_at(TimePoint{msec(20)}, [&order] { order.push_back(2); });

  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.next_time(), TimePoint{msec(10)});
  while (!queue.empty()) queue.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimestampRunsFifo) {
  EventQueue queue;
  const TimePoint at{msec(5)};
  std::vector<int> order;
  // Enough ties to exercise real sift_up/sift_down paths, not just the
  // trivial two-element case.
  for (int i = 0; i < 64; ++i) {
    queue.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    EXPECT_EQ(queue.pop_and_run(), at);
  }
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, InterleavedTiesStillFifoPerTimestamp) {
  EventQueue queue;
  std::vector<std::pair<int, int>> order;  // (timestamp ms, insertion index)
  // Schedule out of time order with duplicates: t=2,1,2,1,...
  for (int i = 0; i < 32; ++i) {
    const int t = (i % 2 == 0) ? 2 : 1;
    queue.schedule_at(TimePoint{msec(t)},
                      [&order, t, i] { order.emplace_back(t, i); });
  }
  while (!queue.empty()) queue.pop_and_run();
  ASSERT_EQ(order.size(), 32u);
  // All t=1 events first, each group in insertion order.
  for (size_t i = 1; i < order.size(); ++i) {
    if (order[i].first == order[i - 1].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);
    } else {
      EXPECT_LT(order[i - 1].first, order[i].first);
    }
  }
}

TEST(EventQueueTest, PopRecyclesSlotBeforeActionRuns) {
  EventQueue queue;
  // A self-rescheduling chain: each action schedules the next from inside
  // pop_and_run. The pool must never grow past one slab because the popped
  // slot is released before the action executes.
  int hops = 0;
  struct Chain {
    EventQueue* queue;
    int* hops;
    void operator()() const {
      if (++*hops < 1000) {
        queue->schedule_at(TimePoint{msec(*hops)}, Chain{queue, hops});
      }
    }
  };
  queue.schedule_at(TimePoint{msec(0)}, Chain{&queue, &hops});
  const size_t capacity_after_first = [&] {
    queue.pop_and_run();
    return queue.pool_capacity();
  }();
  while (!queue.empty()) queue.pop_and_run();
  EXPECT_EQ(hops, 1000);
  EXPECT_EQ(queue.pool_capacity(), capacity_after_first);
}

TEST(EventQueueTest, PoolIsReusedAfterClear) {
  EventQueue queue;
  for (int i = 0; i < 300; ++i) {
    queue.schedule_at(TimePoint{msec(i)}, [] {});
  }
  const size_t capacity = queue.pool_capacity();
  EXPECT_GE(capacity, 300u);

  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.free_count(), capacity);

  // Refilling to the same depth must come entirely from the free list.
  for (int i = 0; i < 300; ++i) {
    queue.schedule_at(TimePoint{msec(i)}, [] {});
  }
  EXPECT_EQ(queue.pool_capacity(), capacity);
  while (!queue.empty()) queue.pop_and_run();
}

TEST(EventQueueTest, ClearDropsPendingAndReplaysIdentically) {
  EventQueue queue;
  const auto run_once = [&queue] {
    std::vector<int> order;
    const TimePoint at{msec(1)};
    for (int i = 0; i < 16; ++i) {
      queue.schedule_at(at, [&order, i] { order.push_back(i); });
    }
    while (!queue.empty()) queue.pop_and_run();
    return order;
  };

  // Abandon a run mid-flight (half the events still pending), as the
  // campaign runner does when it reuses a simulation. clear() must drop the
  // pending events and reset the insertion sequence so the next run on the
  // same queue replays exactly like a run on a fresh queue.
  for (int i = 0; i < 16; ++i) {
    queue.schedule_at(TimePoint{msec(2)}, [] {});
  }
  for (int i = 0; i < 8; ++i) queue.pop_and_run();
  queue.clear();
  EXPECT_TRUE(queue.empty());

  const std::vector<int> reused = run_once();
  EventQueue fresh;
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) {
    fresh.schedule_at(TimePoint{msec(1)}, [&expected, i] {
      expected.push_back(i);
    });
  }
  while (!fresh.empty()) fresh.pop_and_run();
  EXPECT_EQ(reused, expected);
}

TEST(EventQueueTest, ClearReturnsEveryNodeToTheFreeList) {
  EventQueue queue;
  // Grow the pool across several slabs, drain part of the heap, then clear
  // mid-flight. free_count() is arithmetic (capacity - pending events that
  // hold a slot); walking the actual free list proves no node was leaked
  // off both structures.
  for (int i = 0; i < 900; ++i) {
    queue.schedule_at(TimePoint{msec(i)}, [] {});
  }
  for (int i = 0; i < 450; ++i) queue.pop_and_run();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
}

TEST(EventQueueTest, FreeListLengthMatchesFreeCountMidFlight) {
  EventQueue queue;
  for (int i = 0; i < 300; ++i) {
    queue.schedule_at(TimePoint{msec(i)}, [] {});
  }
  for (int i = 0; i < 100; ++i) queue.pop_and_run();
  EXPECT_EQ(queue.free_list_length(), queue.free_count());
}

}  // namespace
}  // namespace gremlin::sim
