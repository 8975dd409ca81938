// EventQueue: the discrete-event scheduler at the heart of the simulator.
//
// Events execute in (time, insertion-sequence) order, so two events scheduled
// for the same virtual instant run in the order they were scheduled — this
// tie-break keeps whole-application runs deterministic.
//
// Storage is a slab-allocated event pool plus a 4-ary min-heap. Heap entries
// carry their (time, seq) sort key inline, so sift operations walk one
// contiguous array instead of chasing a slab pointer per comparison; the pool
// index only resolves to a node when an event is actually popped. Popped
// events return to a free list, so steady-state scheduling performs zero heap
// allocations: the pool grows to the peak number of in-flight events and is
// recycled from then on. Actions are stored in an InlineFunction with a
// simulator-sized inline buffer, so typical closures never touch the heap
// either (std::function would allocate for any capture larger than two
// pointers).
//
// The pool (EventPool) is a standalone object so a campaign worker's
// ExecutionContext can own one and lend it to every warm world it drives:
// the worlds run strictly one at a time on that worker, so they can share
// slabs and the free list — one pool sized to the worker's peak instead of
// one per world. A queue constructed without a pool owns a private one.
// Node indices never influence event order (order is (time, seq) alone), so
// sharing is invisible to the schedule.
//
// Timer events (fixed relative delay from a monotone "now", e.g. the
// per-attempt call timeouts) bypass the heap: for a given delay they are
// scheduled in fire-time order, so each distinct delay gets an O(1) FIFO
// lane. pop order stays the exact global (time, seq) order — the pop
// compares the heap top against each lane front — so runs are
// byte-identical to an all-heap schedule. Lane FIFOs are ring buffers (not
// deques) and clear() retains both their capacity and the lane table
// storage, re-assigning lanes in first-use order, so warm-world resets take
// byte-identical scheduling paths with zero allocation.
//
// Lane timers are cancellable. A call's timeout is cancelled the moment the
// call settles (sim/service.cc), so a finished call no longer pins its
// objects and a pool slot for the whole timeout. cancel_timer() releases the
// pool slot and destroys the closure at once, but the lane entry stays
// behind as a tombstone: it keeps its (time, seq) key and still pops, as a
// no-op that sets the clock and counts as a processed event. Pop order, the
// clock sequence and every fingerprint are therefore identical to a run
// whose cancelled actions simply did nothing. A handle names (lane, ticket,
// epoch); every clear() — and so every restore_events() — starts a new
// epoch, which makes older handles no-ops, as are handles whose timer
// already popped or was already cancelled. A saved queue keeps each
// tombstone in its lane as a bare (time, seq) key, and restore_events()
// puts it back there, so a restored run pops it exactly where the saved
// queue would have.
//
// Near-future one-shot events (the dense mass an open-loop arrival process
// plus its per-hop network/processing events produce at mega-topology
// scale) take a hierarchical timer wheel instead of the heap. Level 0 is a
// ring of 4096 one-tick slots covering the current 4096-tick window; since
// a slot spans exactly one tick, every entry in it shares a timestamp and
// FIFO order within the slot IS (time, seq) order. Level 1 is a ring of 64
// slots, each covering one future 4096-tick window (~260ms of horizon at
// the microsecond tick); when the wheel advances into a window, that
// window's level-1 slot cascades down into level-0 slots. Cascade happens
// strictly before any event of the window can pop and before any new event
// can be scheduled into the window (scheduling into a window requires it to
// be current), so within every level-0 slot cascaded entries (older seqs)
// precede direct ones (newer seqs) and FIFO order is exact. Everything
// beyond the wheel horizon — or behind the cursor — overflows into the
// heap, which pop compares against the wheel and the lanes, so the global
// pop order is byte-identical to an all-heap schedule (the differential
// fuzz in tests/event_wheel_test.cc pins this over mixed wheel/overflow
// deadlines). Slot vectors and occupancy bitmaps are retained by clear(),
// so warm-world resets schedule through the wheel with zero allocations
// once rings reach the run's peak. set_wheel_enabled(false) routes every
// one-shot to the heap — the baseline the differential tests compare
// against.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/duration.h"
#include "common/inline_function.h"

namespace gremlin::sim {

// Slab-allocated storage for scheduled actions, recycled through a LIFO
// free list. Shareable between queues that run on one thread (see file
// comment); not thread-safe.
class EventPool {
 public:
  // Sized for the request-path closures in sim/service.cc (self handle +
  // generation + timestamps + a response); see tests/event_pool_test.cc.
  using Action = InlineFunction<void(), 128>;

  static constexpr uint32_t kNil = 0xffffffffu;

  uint32_t acquire() {
    if (free_head_ != kNil) {
      const uint32_t idx = free_head_;
      free_head_ = node(idx).next_free;
      return idx;
    }
    return grow();
  }

  void release(uint32_t idx) {
    Node& n = node(idx);
    n.action = nullptr;  // drop captures eagerly (they may pin resources)
    n.next_free = free_head_;
    free_head_ = idx;
  }

  Action& action(uint32_t idx) { return node(idx).action; }
  const Action& action(uint32_t idx) const { return node(idx).action; }

  size_t capacity() const { return slabs_.size() * kSlabSize; }

  // Actual free-list walk (O(free nodes)); see EventQueue::free_list_length.
  size_t free_list_length() const {
    size_t n = 0;
    for (uint32_t idx = free_head_; idx != kNil; idx = node(idx).next_free) {
      ++n;
    }
    return n;
  }

 private:
  static constexpr size_t kSlabBits = 8;
  static constexpr size_t kSlabSize = size_t{1} << kSlabBits;  // nodes/slab

  struct Node {
    Action action;
    uint32_t next_free = kNil;
  };

  Node& node(uint32_t idx) {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }
  const Node& node(uint32_t idx) const {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }

  uint32_t grow();

  std::vector<std::unique_ptr<Node[]>> slabs_;  // stable slab-allocated pool
  uint32_t free_head_ = kNil;                   // LIFO free list
};

class EventQueue {
 public:
  using Action = EventPool::Action;

  // A null pool means the queue owns a private one; a non-null pool must
  // outlive the queue and only be shared with queues on the same thread.
  explicit EventQueue(EventPool* pool = nullptr)
      : pool_(pool != nullptr ? pool : &own_pool_) {}

  // pool_ may alias own_pool_, so the queue is pinned in place.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Names one lane timer for cancel_timer(). A default-constructed handle
  // is empty, as is the handle of a timer that fell back to the heap.
  struct TimerHandle {
    uint32_t lane = EventPool::kNil;
    uint32_t epoch = 0;
    uint64_t ticket = 0;  // position in the lane's push order this epoch

    bool empty() const { return lane == EventPool::kNil; }
  };

  void schedule_at(TimePoint at, Action action);

  // Schedules a timer event: `at` must be `delay` after the caller's
  // monotone clock, so same-delay timers are born in fire-time order and
  // append to an O(1) FIFO lane instead of the heap. A non-monotone insert
  // or an exotic delay (lane table full) falls back to schedule_at — the
  // lane is an optimization, never a semantic — and returns an empty
  // handle: such a timer cannot be cancelled and simply runs.
  TimerHandle schedule_timer(TimePoint at, Duration delay, Action action);

  // Drops a pending lane timer's action now, leaving a tombstone that pops
  // as a no-op at the timer's (time, seq) (see file comment). Empty and
  // stale handles — the timer already popped or was cancelled, or the
  // queue was cleared or restored since — are ignored.
  void cancel_timer(const TimerHandle& handle);

  bool empty() const {
    return heap_.empty() && lanes_pending_ == 0 && wheel_pending_ == 0;
  }
  size_t size() const { return heap_.size() + lanes_pending_ + wheel_pending_; }

  // Time of the earliest pending event; undefined when empty.
  TimePoint next_time() const { return best_entry()->at; }

  // Removes and runs the earliest event; returns its timestamp. The event's
  // pool slot is recycled before the action runs, so actions that schedule
  // follow-up events reuse it immediately; a tombstone runs nothing. When
  // `clock` is non-null it receives the event's timestamp *before* the
  // action runs — the simulator's clock update — so the run loop pays one
  // best-entry scan per event instead of a separate next_time() peek plus
  // the pop's own scan.
  TimePoint pop_and_run(TimePoint* clock = nullptr);

  // Drops all pending events and resets the insertion sequence, so
  // back-to-back runs on a reused queue produce identical event orderings.
  // The pool, the lane table, every lane's ring capacity, and the wheel's
  // node arena / slot rings are retained. Starts a new timer-handle epoch.
  void clear();

  // Routes one-shot events through the hierarchical timer wheel (default)
  // or forces them all onto the heap. Pop order is byte-identical either
  // way; the heap-only mode exists as the baseline for benchmarks and the
  // differential fuzz test. Takes effect for subsequent scheduling; events
  // already in the wheel still drain through it.
  void set_wheel_enabled(bool on) { wheel_enabled_ = on; }
  bool wheel_enabled() const { return wheel_enabled_; }

  // Events currently resident in the wheel (tests / benchmarks).
  size_t wheel_size() const { return wheel_pending_; }

  // --- snapshot support (sim/snapshot.h) ---
  // Heap and wheel events save as (time, seq, copied action). The copy is a
  // value: EventPool::Action is copyable, and the copy shares the
  // shared_ptr-held request objects the original captured.
  struct SavedEvent {
    TimePoint at{};
    uint64_t seq = 0;
    Action action;
  };
  // A lane timer saves as a compact key: `action` indexes
  // SavedQueue::timer_actions, or is kNil for a tombstone, which carries no
  // action at all.
  struct SavedTimer {
    TimePoint at{};
    uint64_t seq = 0;
    uint32_t action = EventPool::kNil;
  };
  // One timer lane: its delay and its FIFO, front first.
  struct SavedLane {
    Duration delay{};
    std::vector<SavedTimer> timers;
  };
  // Every pending event plus the insertion sequence. Order within `events`
  // is unspecified (the (at, seq) keys carry the schedule); `lanes` is the
  // lane table in first-use order.
  struct SavedQueue {
    std::vector<SavedEvent> events;
    std::vector<SavedLane> lanes;
    std::vector<Action> timer_actions;  // live lane timers only
    uint64_t next_seq = 0;
  };

  // Copies every pending event into `out`, leaving the queue untouched.
  void save_events(SavedQueue* out) const;

  // Replaces the queue's contents with `saved`. Heap and wheel events go
  // into the heap (the wheel cursor restarts cold, and placement never
  // affects the (at, seq) pop order). The lane table is rebuilt in place —
  // same lanes in the same order with the same delays, each FIFO as saved
  // and its ticket count at the restored length — so tombstones pop as
  // no-ops from O(1) lanes, later timers append behind the restored ones,
  // and lane assignment (the table-full fallback included) continues as in
  // the saved queue. The insertion sequence is restored too, so events
  // scheduled after the restore get the seqs a cold run would assign.
  // Starts a new timer-handle epoch, like clear().
  void restore_events(const SavedQueue& saved);

  // --- pool introspection (tests / benchmarks) ---
  size_t pool_capacity() const { return pool_->capacity(); }
  // Tombstones hold no pool slot.
  size_t free_count() const {
    return pool_capacity() - (size() - tombstones_);
  }

  // Actual free-list walk (O(free nodes)), as opposed to the arithmetic
  // free_count(). After clear() — including an early-terminated run's
  // cancel_pending() — every pool node must be on the free list; a shorter
  // walk means leaked slab nodes (tests/event_pool_test.cc).
  size_t free_list_length() const { return pool_->free_list_length(); }

 private:
  static constexpr uint32_t kNil = EventPool::kNil;

  // One pending event (heap, lane or wheel): sort key plus the pool index of
  // the action; kNil marks a tombstone, which only a lane holds.
  struct Entry {
    TimePoint at{};
    uint64_t seq = 0;
    uint32_t idx = 0;

    bool before(const Entry& other) const {
      if (at != other.at) return at < other.at;
      return seq < other.seq;
    }
  };

  // Fixed-purpose FIFO ring: push_back/pop_front with retained power-of-two
  // capacity, so a warm world's timer traffic stops allocating once the
  // ring reaches the run's peak (a deque would churn block allocations).
  struct Ring {
    std::vector<Entry> buf;  // power-of-two size; empty until first push
    size_t head = 0;
    size_t count = 0;

    bool empty() const { return count == 0; }
    size_t size() const { return count; }
    const Entry& front() const { return buf[head]; }
    const Entry& back() const { return buf[(head + count - 1) & (buf.size() - 1)]; }
    const Entry& at(size_t i) const {
      return buf[(head + i) & (buf.size() - 1)];
    }
    Entry& at(size_t i) { return buf[(head + i) & (buf.size() - 1)]; }
    void push_back(const Entry& e) {
      if (count == buf.size()) grow();
      buf[(head + count) & (buf.size() - 1)] = e;
      ++count;
    }
    void pop_front() {
      head = (head + 1) & (buf.size() - 1);
      --count;
    }
    void clear() {
      head = 0;
      count = 0;
    }
    void grow();
  };

  // One FIFO of same-delay timers, sorted by (at, seq) by construction.
  struct Lane {
    Duration delay{};
    Ring fifo;
    uint64_t issued = 0;  // tickets handed out this epoch
  };
  static constexpr size_t kMaxLanes = 8;

  // --- hierarchical timer wheel (see file comment) ---
  //
  // Level 0: 4096 one-tick slots covering the current window
  // [cur_window_ << 12, (cur_window_ + 1) << 12). Level 1: 64 slots, one
  // per future window; live L1 windows are restricted to a delta of
  // [1, kL1Span] windows ahead, so window residues mod 64 are unique and
  // slots need no window tag. Entries live in a free-listed node arena
  // (wnodes_); slots are intrusive FIFO lists, so cascading a window from
  // L1 to L0 relinks nodes without copying or allocating.
  static constexpr size_t kL0Bits = 12;
  static constexpr size_t kL0Slots = size_t{1} << kL0Bits;  // 4096 ticks
  static constexpr uint64_t kL0Mask = kL0Slots - 1;
  static constexpr size_t kL1Slots = 64;
  static constexpr uint64_t kL1Mask = kL1Slots - 1;
  static constexpr uint64_t kL1Span = kL1Slots - 2;  // max live window delta

  struct WheelNode {
    Entry entry;
    uint32_t next = kNil;
  };
  struct L0Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct L1Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    Entry min{};  // cached (at, seq) minimum of the slot's list
  };

  // Sources best_entry() can report: lanes are >= 0.
  static constexpr int kSrcHeap = -1;
  static constexpr int kSrcWheel = -2;

  void sift_up(size_t pos);
  void sift_down(size_t pos);
  // Global (time, seq) minimum across the heap top, the lane fronts, and
  // the wheel; null when the queue is empty. `src` (when non-null)
  // receives the winning lane index, kSrcHeap, or kSrcWheel.
  const Entry* best_entry(int* src = nullptr) const;

  // Wheel internals (event_queue.cc). try_wheel places an entry if its
  // time lands in the wheel's span; advance_to moves the cursor to the
  // global-min time about to pop (every slot it skips is provably empty);
  // cascade redistributes one L1 window into L0 slots.
  bool try_wheel(const Entry& e);
  const Entry* l0_first() const;
  const Entry* wheel_best() const;
  void advance_to(TimePoint t);
  void cascade(size_t l1);
  void pop_wheel(const Entry& e);
  uint32_t wacquire(const Entry& e);
  void wrelease(uint32_t idx) {
    wnodes_[idx].next = wfree_;
    wfree_ = idx;
  }
  void release_wheel_entries();

  EventPool own_pool_;  // used only when no external pool was supplied
  EventPool* pool_;
  std::vector<Entry> heap_;  // 4-ary min-heap
  std::vector<Lane> lanes_;  // timer FIFOs, one per delay; storage retained
  size_t lanes_used_ = 0;    // lanes live this run (first-use order)
  size_t lanes_pending_ = 0;  // events across all live lanes
  size_t tombstones_ = 0;     // pending entries without a pool slot
  uint32_t epoch_ = 0;        // bumped by clear(); stamps timer handles

  bool wheel_enabled_ = true;
  std::vector<WheelNode> wnodes_;  // wheel node arena; grows to peak, kept
  uint32_t wfree_ = kNil;          // LIFO free list through wnodes_
  std::vector<L0Slot> l0_;         // kL0Slots entries, allocated on first use
  std::array<L1Slot, kL1Slots> l1_{};
  std::array<uint64_t, kL0Slots / 64> l0_bits_{};  // L0 occupancy
  uint64_t l0_summary_ = 0;  // bit w set iff l0_bits_[w] != 0
  uint64_t l1_bits_ = 0;     // L1 occupancy
  uint64_t cur_window_ = 0;  // window the L0 ring currently covers
  size_t l0_cursor_ = 0;     // first possibly-occupied L0 slot
  size_t wheel_pending_ = 0;  // events across L0 + L1

  uint64_t next_seq_ = 0;
};

}  // namespace gremlin::sim
