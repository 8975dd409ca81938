// Differential tests for the hierarchical timer wheel (sim/event_queue.h):
// the wheel is an optimization, never a semantic, so a queue with the wheel
// enabled must pop the exact (time, seq) order of a heap-only queue over
// any schedule — including schedules that straddle the wheel's level-0
// window, the level-1 span, the overflow-to-heap region, behind-the-cursor
// inserts, and negative timestamps. The fuzz below replays 1000 seeded
// random schedule programs through both configurations and requires
// byte-identical pop sequences; directed tests pin the cascade-FIFO
// invariant and the clear()/warm-reset hygiene contract.
//
// Timer cancellation is held to the same standard: a cancelled timer stays
// behind as a tombstone that pops as a no-op, so a run with cancels must pop
// the same clock sequence as the same run without them, in which the
// cancelled actions just do nothing. The cancellation fuzz replays seeded
// programs with random cancels — many of them stale: the timer already
// fired, or the queue was cleared or restored since — against that model.
// Both fuzzes run a fixed seed range; a non-zero --gtest_random_seed shifts
// the range to fresh seeds. Directed tests pin how a saved queue restores
// its timer lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace gremlin::sim {
namespace {

constexpr int64_t kWindowTicks = 4096;       // level-0 span (one window)
constexpr int64_t kSpanTicks = 62 * 4096;    // level-1 horizon

// One scheduling program: a deterministic op list generated from a seed,
// replayable against any queue configuration.
struct Op {
  enum Kind { kScheduleAt, kScheduleTimer, kPop };
  Kind kind = kPop;
  int64_t arg = 0;  // offset ticks from "now" (kScheduleAt) or delay index
};

constexpr int64_t kTimerDelays[] = {500, 1000, 5000, 100000};

// First program seed of the fuzzes: 0, or a non-zero --gtest_random_seed
// scaled past every range below, so distinct flags draw disjoint seeds.
uint64_t first_seed() {
  const int32_t flag = ::testing::GTEST_FLAG(random_seed);
  return static_cast<uint64_t>(flag) << 20;
}

std::vector<Op> make_program(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(length);
  int64_t last_offset = 0;
  for (size_t i = 0; i < length; ++i) {
    if (rng.next_below(10) < 4) {
      ops.push_back({Op::kPop, 0});
      continue;
    }
    if (rng.next_below(10) < 2) {
      ops.push_back({Op::kScheduleTimer,
                     static_cast<int64_t>(rng.next_below(4))});
      continue;
    }
    int64_t offset = 0;
    switch (rng.next_below(6)) {
      case 0:  // dense near future: current level-0 window
        offset = static_cast<int64_t>(rng.next_below(kWindowTicks));
        break;
      case 1:  // level-1 range
        offset = kWindowTicks +
                 static_cast<int64_t>(rng.next_below(kSpanTicks - kWindowTicks));
        break;
      case 2:  // beyond the wheel horizon: heap overflow
        offset = kSpanTicks +
                 static_cast<int64_t>(rng.next_below(1'000'000));
        break;
      case 3:  // exact tie with the previous schedule (seq tie-break)
        offset = last_offset;
        break;
      case 4:  // at "now" or just behind it (behind-cursor fallback)
        offset = -static_cast<int64_t>(rng.next_below(2000));
        break;
      case 5:  // far in the past, possibly a negative absolute time
        offset = -static_cast<int64_t>(rng.next_below(5'000'000));
        break;
    }
    last_offset = offset;
    ops.push_back({Op::kScheduleAt, offset});
  }
  return ops;
}

struct Popped {
  TimePoint at{};
  int label = 0;
  bool operator==(const Popped&) const = default;
};

// Replays `ops` on a fresh-or-reused queue and returns the pop sequence.
// "now" tracks the last popped timestamp, as a simulation clock would.
std::vector<Popped> replay(EventQueue& queue, const std::vector<Op>& ops) {
  std::vector<Popped> popped;
  TimePoint now{};
  int label = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kScheduleAt: {
        const TimePoint at = now + Duration(op.arg);
        const int l = label++;
        queue.schedule_at(at, [&popped, at, l] { popped.push_back({at, l}); });
        break;
      }
      case Op::kScheduleTimer: {
        const Duration delay{kTimerDelays[op.arg]};
        const TimePoint at = now + delay;
        const int l = label++;
        queue.schedule_timer(at, delay,
                             [&popped, at, l] { popped.push_back({at, l}); });
        break;
      }
      case Op::kPop:
        if (!queue.empty()) now = queue.pop_and_run();
        break;
    }
  }
  while (!queue.empty()) now = queue.pop_and_run();
  return popped;
}

std::vector<Popped> replay_fresh(const std::vector<Op>& ops, bool wheel) {
  EventQueue queue;
  queue.set_wheel_enabled(wheel);
  return replay(queue, ops);
}

TEST(EventWheelDifferentialTest, WheelMatchesHeapOver1000SeededSchedules) {
  for (uint64_t seed = first_seed(); seed < first_seed() + 1000; ++seed) {
    const std::vector<Op> ops = make_program(seed, 200);
    const std::vector<Popped> with_wheel = replay_fresh(ops, true);
    const std::vector<Popped> heap_only = replay_fresh(ops, false);
    ASSERT_EQ(with_wheel, heap_only) << "pop order diverged at seed " << seed;
    // Every scheduled event must surface exactly once.
    size_t scheduled = 0;
    for (const Op& op : ops) scheduled += op.kind != Op::kPop;
    ASSERT_EQ(with_wheel.size(), scheduled) << "lost events at seed " << seed;
  }
}

TEST(EventWheelTest, NearFutureEventsLandInTheWheel) {
  EventQueue queue;
  for (int i = 0; i < 32; ++i) {
    queue.schedule_at(TimePoint{Duration(i * 100)}, [] {});
  }
  EXPECT_EQ(queue.wheel_size(), 32u);
  EXPECT_EQ(queue.size(), 32u);

  EventQueue heap_only;
  heap_only.set_wheel_enabled(false);
  for (int i = 0; i < 32; ++i) {
    heap_only.schedule_at(TimePoint{Duration(i * 100)}, [] {});
  }
  EXPECT_EQ(heap_only.wheel_size(), 0u);
}

TEST(EventWheelTest, HorizonRoutesLevel1AndOverflow) {
  EventQueue queue;
  // Last tick inside the level-1 span is wheel-resident; one window later
  // overflows to the heap.
  queue.schedule_at(TimePoint{Duration(kSpanTicks + kWindowTicks - 1)}, [] {});
  EXPECT_EQ(queue.wheel_size(), 1u);
  queue.schedule_at(TimePoint{Duration(kSpanTicks + kWindowTicks)}, [] {});
  EXPECT_EQ(queue.wheel_size(), 1u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop_and_run(), TimePoint{Duration(kSpanTicks + kWindowTicks - 1)});
  EXPECT_EQ(queue.pop_and_run(), TimePoint{Duration(kSpanTicks + kWindowTicks)});
}

TEST(EventWheelTest, CascadePreservesFifoAgainstDirectInserts) {
  EventQueue queue;
  std::vector<int> order;
  const TimePoint wake{Duration(5 * kWindowTicks)};       // future window
  const TimePoint target{Duration(5 * kWindowTicks + 7)};  // same window
  // Seeded through level 1 before the window is current...
  for (int i = 0; i < 8; ++i) {
    queue.schedule_at(target, [&order, i] { order.push_back(i); });
  }
  // ...then a wake event advances the wheel into the window (cascading the
  // level-1 slot), and direct level-0 inserts at the same tick follow.
  queue.schedule_at(wake, [&queue, &order] {
    const TimePoint target{Duration(5 * kWindowTicks + 7)};
    for (int i = 8; i < 16; ++i) {
      queue.schedule_at(target, [&order, i] { order.push_back(i); });
    }
  });
  while (!queue.empty()) queue.pop_and_run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);  // pure seq order
}

TEST(EventWheelTest, BehindCursorInsertStillPopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(TimePoint{Duration(3000)}, [&] { order.push_back(0); });
  queue.pop_and_run();  // cursor now at tick 3000
  queue.schedule_at(TimePoint{Duration(1000)}, [&] { order.push_back(1); });
  queue.schedule_at(TimePoint{Duration(3500)}, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventWheelTest, ClearReleasesEveryWheelNodeToThePoolFreeList) {
  EventQueue queue;
  // Populate level 0, level 1, and the heap, drain part of it, then clear
  // mid-flight: every pool node must land back on the free list.
  for (int i = 0; i < 300; ++i) {
    queue.schedule_at(TimePoint{Duration(i * 10)}, [] {});                // L0
    queue.schedule_at(TimePoint{Duration(kWindowTicks * 3 + i)}, [] {});  // L1
    queue.schedule_at(TimePoint{Duration(kSpanTicks * 2 + i)}, [] {});  // heap
  }
  for (int i = 0; i < 200; ++i) queue.pop_and_run();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.wheel_size(), 0u);
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
}

TEST(EventWheelTest, WarmReplayAfterClearMatchesFreshQueue) {
  const std::vector<Op> ops = make_program(0x5eed, 400);
  EventQueue reused;
  // Dirty the queue (wheel advanced deep into a run, slots part-drained),
  // then clear: the wheel must rewind to window zero with storage retained
  // so the replay is byte-identical to a fresh queue's.
  replay(reused, ops);
  for (int i = 0; i < 50; ++i) {
    reused.schedule_at(TimePoint{Duration(i * 997)}, [] {});
  }
  reused.clear();
  EXPECT_EQ(replay(reused, ops), replay_fresh(ops, true));
}

// ------------------------------------------------------------ cancellation

// A make_program() schedule with cancels, clears and save/restore round
// trips spliced in. A cancel picks one of the timers scheduled so far at
// replay time: with an odd `pick` one of the last four, with an even one
// any of them, so live, stale and repeated cancels all occur.
struct CancelOp {
  enum Kind { kBase, kCancel, kClear, kSaveRestore };
  Kind kind = kBase;
  Op base;
  uint64_t pick = 0;
};

std::vector<CancelOp> make_cancel_program(uint64_t seed, size_t length) {
  Rng rng(seed ^ 0xca9ce1);
  std::vector<CancelOp> ops;
  for (const Op& op : make_program(seed, length)) {
    ops.push_back({CancelOp::kBase, op, 0});
    const uint64_t roll = rng.next_below(100);
    if (roll < 25) {
      ops.push_back({CancelOp::kCancel, {}, rng.next_below(1u << 20)});
    } else if (roll < 27) {
      ops.push_back({CancelOp::kClear, {}, 0});
    } else if (roll < 30) {
      ops.push_back({CancelOp::kSaveRestore, {}, 0});
    }
  }
  return ops;
}

// What the model saw the cancels hit (coverage, not compared).
struct CancelMix {
  size_t live = 0;
  size_t fired = 0;     // the timer had already popped
  size_t old_era = 0;   // a clear() or restore_events() came in between
  size_t heap = 0;      // empty handle: the timer fell back to the heap
};

struct CancelTrace {
  std::vector<Popped> ran;       // actions that ran, in order
  std::vector<TimePoint> clock;  // every pop's time, tombstones included
  std::vector<size_t> sizes;     // queue size after every op
  bool operator==(const CancelTrace&) const = default;
};

// Replays `ops`. With `cancel` the queue's cancel_timer() does the work and
// actions run unconditionally. Without it nothing is cancelled; the model
// instead marks the timers a cancel would have caught — still pending,
// lane-scheduled, and scheduled since the last clear or restore — and their
// actions do nothing when they pop.
CancelTrace replay_cancels(EventQueue& queue, const std::vector<CancelOp>& ops,
                           bool cancel, CancelMix* mix = nullptr) {
  struct Timer {
    EventQueue::TimerHandle handle;
    size_t label = 0;
    uint64_t era = 0;  // clears + restores before it was scheduled
  };
  CancelTrace trace;
  std::vector<Timer> timers;
  std::vector<bool> fired;  // by label; shared by restored action copies
  std::vector<bool> dead;
  EventQueue::SavedQueue saved;
  uint64_t era = 0;
  TimePoint now{};
  int label = 0;
  const auto pop = [&] {
    now = queue.pop_and_run();
    trace.clock.push_back(now);
  };
  for (const CancelOp& op : ops) {
    switch (op.kind) {
      case CancelOp::kBase:
        switch (op.base.kind) {
          case Op::kScheduleAt: {
            const TimePoint at = now + Duration(op.base.arg);
            const int l = label++;
            fired.push_back(false);
            dead.push_back(false);
            queue.schedule_at(at, [&trace, at, l] {
              trace.ran.push_back({at, l});
            });
            break;
          }
          case Op::kScheduleTimer: {
            const Duration delay{kTimerDelays[op.base.arg]};
            const TimePoint at = now + delay;
            const int l = label++;
            fired.push_back(false);
            dead.push_back(false);
            const EventQueue::TimerHandle handle = queue.schedule_timer(
                at, delay, [&trace, &fired, &dead, at, l] {
                  fired[static_cast<size_t>(l)] = true;
                  if (dead[static_cast<size_t>(l)]) return;
                  trace.ran.push_back({at, l});
                });
            timers.push_back({handle, static_cast<size_t>(l), era});
            break;
          }
          case Op::kPop:
            if (!queue.empty()) pop();
            break;
        }
        break;
      case CancelOp::kCancel: {
        if (timers.empty()) break;
        const size_t n = timers.size();
        const size_t i = (op.pick & 1) != 0
                             ? n - 1 - (op.pick >> 1) % std::min<size_t>(n, 4)
                             : (op.pick >> 1) % n;
        const Timer& t = timers[i];
        if (cancel) {
          queue.cancel_timer(t.handle);
        } else if (!fired[t.label] && !t.handle.empty() && t.era == era) {
          dead[t.label] = true;
          if (mix != nullptr) ++mix->live;
        } else if (mix != nullptr) {
          ++(t.handle.empty()   ? mix->heap
             : fired[t.label]   ? mix->fired
                                : mix->old_era);
        }
        break;
      }
      case CancelOp::kClear:
        queue.clear();
        ++era;
        // Pending tombstones included, every pool slot is free again.
        EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
        break;
      case CancelOp::kSaveRestore:
        queue.save_events(&saved);
        queue.restore_events(saved);
        ++era;
        break;
    }
    trace.sizes.push_back(queue.size());
    EXPECT_EQ(queue.free_list_length(), queue.free_count());
  }
  while (!queue.empty()) pop();
  return trace;
}

TEST(EventWheelDifferentialTest, CancelsMatchNoOpActionsOver300SeededSchedules) {
  size_t ran_cancelled = 0;
  CancelMix mix;
  for (uint64_t seed = first_seed(); seed < first_seed() + 300; ++seed) {
    const std::vector<CancelOp> ops = make_cancel_program(seed, 200);
    EventQueue model;
    const CancelTrace expected = replay_cancels(model, ops, false, &mix);
    for (const bool wheel : {true, false}) {
      EventQueue queue;
      queue.set_wheel_enabled(wheel);
      const CancelTrace got = replay_cancels(queue, ops, true);
      ASSERT_EQ(got.clock, expected.clock)
          << "clock diverged at seed " << seed << " wheel " << wheel;
      ASSERT_EQ(got.ran, expected.ran)
          << "actions diverged at seed " << seed << " wheel " << wheel;
      ASSERT_EQ(got.sizes, expected.sizes)
          << "sizes diverged at seed " << seed << " wheel " << wheel;
    }
    // Every popped event either ran or was a (model-)cancelled no-op.
    ran_cancelled += expected.clock.size() - expected.ran.size();
  }
  // The programs must exercise every kind of cancel.
  EXPECT_GT(ran_cancelled, 500u);
  EXPECT_GT(mix.live, 1000u);
  EXPECT_GT(mix.fired, 1000u);
  EXPECT_GT(mix.old_era, 1000u);
  EXPECT_GT(mix.heap, 100u);
}

TEST(EventWheelTest, CancelledTimerPopsAsClockAdvancingNoOp) {
  EventQueue queue;
  std::vector<int> ran;
  const Duration delay = msec(5);
  std::vector<EventQueue::TimerHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(queue.schedule_timer(TimePoint{msec(i)} + delay, delay,
                                           [&ran, i] { ran.push_back(i); }));
  }
  queue.cancel_timer(handles[1]);
  queue.cancel_timer(handles[1]);  // a repeat is a no-op
  EXPECT_EQ(queue.size(), 3u);     // the tombstone is still pending
  EXPECT_EQ(queue.free_count(), queue.pool_capacity() - 2);
  EXPECT_EQ(queue.free_list_length(), queue.free_count());
  std::vector<TimePoint> clock;
  while (!queue.empty()) clock.push_back(queue.pop_and_run());
  EXPECT_EQ(ran, (std::vector<int>{0, 2}));
  EXPECT_EQ(clock, (std::vector<TimePoint>{msec(5), msec(6), msec(7)}));
  queue.cancel_timer(handles[0]);  // already fired: no-op
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
}

TEST(EventWheelTest, CancelDropsTheClosureAtOnce) {
  EventQueue queue;
  auto pinned = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = pinned;
  const auto handle = queue.schedule_timer(
      TimePoint{msec(500)}, msec(500), [p = std::move(pinned)] { (void)p; });
  ASSERT_FALSE(handle.empty());
  EXPECT_FALSE(watch.expired());
  queue.cancel_timer(handle);
  EXPECT_TRUE(watch.expired());  // released now, not at t = 500 ms
}

TEST(EventWheelTest, ClearWithPendingTombstonesFreesEveryPoolSlot) {
  EventQueue queue;
  std::vector<EventQueue::TimerHandle> handles;
  for (int i = 0; i < 600; ++i) {
    handles.push_back(queue.schedule_timer(TimePoint{msec(i)} + msec(100),
                                           msec(100), [] {}));
    queue.schedule_at(TimePoint{msec(i)}, [] {});
  }
  for (size_t i = 0; i < handles.size(); i += 2) queue.cancel_timer(handles[i]);
  for (int i = 0; i < 100; ++i) queue.pop_and_run();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
  EXPECT_EQ(queue.free_count(), queue.pool_capacity());

  // Handles from before the clear must not reach the new epoch's timers,
  // which reuse the same lane and ticket numbers.
  int ran = 0;
  const auto fresh = queue.schedule_timer(TimePoint{msec(100)}, msec(100),
                                          [&ran] { ++ran; });
  EXPECT_EQ(fresh.lane, handles[0].lane);
  EXPECT_EQ(fresh.ticket, handles[0].ticket);
  queue.cancel_timer(handles[0]);
  while (!queue.empty()) queue.pop_and_run();
  EXPECT_EQ(ran, 1);
}

TEST(EventWheelTest, SaveRestorePopsTombstonesAsNoOps) {
  EventQueue queue;
  std::vector<int> ran;
  std::vector<EventQueue::TimerHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(queue.schedule_timer(TimePoint{msec(10 + i)}, msec(10),
                                           [&ran, i] { ran.push_back(i); }));
  }
  queue.cancel_timer(handles[1]);
  queue.cancel_timer(handles[2]);
  EventQueue::SavedQueue saved;
  queue.save_events(&saved);
  // The lane saves as it stands; tombstones are bare keys without actions.
  EXPECT_TRUE(saved.events.empty());
  ASSERT_EQ(saved.lanes.size(), 1u);
  EXPECT_EQ(saved.lanes[0].delay, msec(10));
  std::vector<uint32_t> actions;
  for (const auto& timer : saved.lanes[0].timers) {
    actions.push_back(timer.action);
  }
  EXPECT_EQ(actions, (std::vector<uint32_t>{0, EventPool::kNil,
                                            EventPool::kNil, 1}));
  EXPECT_EQ(saved.timer_actions.size(), 2u);

  queue.restore_events(saved);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.free_count(), queue.pool_capacity() - 2);
  EXPECT_EQ(queue.free_list_length(), queue.free_count());
  queue.cancel_timer(handles[3]);  // restored: the old handle is stale
  std::vector<TimePoint> clock;
  while (!queue.empty()) clock.push_back(queue.pop_and_run());
  EXPECT_EQ(ran, (std::vector<int>{0, 3}));
  EXPECT_EQ(clock, (std::vector<TimePoint>{msec(10), msec(11), msec(12),
                                           msec(13)}));
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
}

// What one run of lane_program() observed.
struct LaneRun {
  std::vector<int> ran;
  std::vector<TimePoint> clock;
  std::vector<EventQueue::TimerHandle> late;  // timers scheduled after
  std::vector<size_t> saved_lane_sizes;       // restored runs only
};

// Three timer lanes with every other timer cancelled, plus one-shots. Once
// the six one-shots have popped, the queue is saved and restored (when
// `restore`); then timers with `late_delays` are scheduled from the current
// clock, the first of them is cancelled, and the queue drains.
LaneRun lane_program(bool restore, const std::vector<Duration>& late_delays) {
  EventQueue queue;
  LaneRun run;
  int label = 0;
  const auto action = [&run](int l) {
    return [&run, l] { run.ran.push_back(l); };
  };
  std::vector<EventQueue::TimerHandle> early;
  for (int i = 0; i < 6; ++i) {
    const TimePoint now{msec(i)};
    for (const Duration delay : {msec(10), msec(20), msec(30)}) {
      early.push_back(
          queue.schedule_timer(now + delay, delay, action(label++)));
    }
    queue.schedule_at(now + usec(500), action(label++));
  }
  for (size_t i = 0; i < early.size(); i += 2) queue.cancel_timer(early[i]);
  for (int i = 0; i < 6; ++i) run.clock.push_back(queue.pop_and_run());
  if (restore) {
    EventQueue::SavedQueue saved;
    queue.save_events(&saved);
    for (const auto& lane : saved.lanes) {
      run.saved_lane_sizes.push_back(lane.timers.size());
    }
    queue.restore_events(saved);
  }
  const TimePoint now = run.clock.back();
  for (const Duration delay : late_delays) {
    run.late.push_back(
        queue.schedule_timer(now + delay, delay, action(label++)));
  }
  queue.cancel_timer(run.late.front());
  while (!queue.empty()) run.clock.push_back(queue.pop_and_run());
  EXPECT_EQ(queue.free_list_length(), queue.pool_capacity());
  return run;
}

TEST(EventWheelTest, RestoredLaneTakesLaterTimersBehindItsEntries) {
  const std::vector<Duration> late = {msec(20), msec(20), msec(10)};
  const LaneRun fresh = lane_program(false, late);
  const LaneRun restored = lane_program(true, late);
  ASSERT_EQ(restored.saved_lane_sizes, (std::vector<size_t>{6, 6, 6}));
  // The 20 ms timers join the restored 20 ms lane behind its six entries,
  // and the first of them, cancelled there, pops as a tombstone.
  ASSERT_EQ(restored.late.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(restored.late[i].lane, 1u);
    EXPECT_EQ(restored.late[i].ticket, 6u + i);
  }
  EXPECT_EQ(restored.late[2].lane, 0u);
  EXPECT_EQ(restored.late[2].ticket, 6u);
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_EQ(restored.late[i].lane, fresh.late[i].lane);
  }
  EXPECT_EQ(restored.clock, fresh.clock);
  EXPECT_EQ(restored.ran, fresh.ran);
}

TEST(EventWheelTest, RestoredLaneTableFallsBackToTheHeapWhenFull) {
  // Eight new delays on top of the three restored lanes overflow the
  // eight-lane table after five, exactly as they do in the unrestored queue.
  std::vector<Duration> late;
  for (int i = 0; i < 8; ++i) late.push_back(msec(40 + i));
  const LaneRun fresh = lane_program(false, late);
  const LaneRun restored = lane_program(true, late);
  std::vector<bool> fell_back;
  for (const auto& handle : restored.late) fell_back.push_back(handle.empty());
  EXPECT_EQ(fell_back, (std::vector<bool>{false, false, false, false, false,
                                          true, true, true}));
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_EQ(restored.late[i].empty(), fresh.late[i].empty());
    EXPECT_EQ(restored.late[i].lane, fresh.late[i].lane);
  }
  EXPECT_EQ(restored.clock, fresh.clock);
  EXPECT_EQ(restored.ran, fresh.ran);
}

}  // namespace
}  // namespace gremlin::sim
