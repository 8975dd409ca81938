#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace gremlin::sim {

uint32_t EventPool::grow() {
  // Pool exhausted: grow by one slab and thread the new nodes onto the free
  // list (highest index first, so allocation order is ascending).
  const uint32_t base = static_cast<uint32_t>(capacity());
  slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
  for (size_t i = kSlabSize; i-- > 1;) {
    node(base + static_cast<uint32_t>(i)).next_free = free_head_;
    free_head_ = base + static_cast<uint32_t>(i);
  }
  return base;
}

void EventQueue::Ring::grow() {
  const size_t new_size = std::max<size_t>(16, buf.size() * 2);
  std::vector<Entry> fresh(new_size);
  for (size_t i = 0; i < count; ++i) fresh[i] = at(i);
  buf = std::move(fresh);
  head = 0;
}

void EventQueue::sift_up(size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) >> 2;
    if (!entry.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

void EventQueue::sift_down(size_t pos) {
  const size_t n = heap_.size();
  const Entry entry = heap_[pos];
  for (;;) {
    const size_t first_child = (pos << 2) + 1;
    if (first_child >= n) break;
    // Smallest of up to four children.
    size_t best = first_child;
    const size_t last_child = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(entry)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = entry;
}

void EventQueue::schedule_at(TimePoint at, Action action) {
  const uint32_t idx = pool_->acquire();
  pool_->action(idx) = std::move(action);
  const Entry e{at, next_seq_++, idx};
  if (wheel_enabled_ && try_wheel(e)) return;
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

uint32_t EventQueue::wacquire(const Entry& e) {
  uint32_t idx;
  if (wfree_ != kNil) {
    idx = wfree_;
    wfree_ = wnodes_[idx].next;
  } else {
    idx = static_cast<uint32_t>(wnodes_.size());
    wnodes_.emplace_back();
  }
  wnodes_[idx].entry = e;
  wnodes_[idx].next = kNil;
  return idx;
}

bool EventQueue::try_wheel(const Entry& e) {
  // The wheel indexes by unsigned tick; negative times (legal for the
  // queue, if odd) and anything behind the cursor or beyond the level-1
  // span take the heap, which accepts any time.
  if (e.at.count() < 0) return false;
  const uint64_t tick = static_cast<uint64_t>(e.at.count());
  const uint64_t w = tick >> kL0Bits;
  if (w < cur_window_ || w - cur_window_ > kL1Span) return false;
  if (w == cur_window_) {
    const size_t slot = static_cast<size_t>(tick & kL0Mask);
    if (slot < l0_cursor_) return false;  // current window, already passed
    if (l0_.empty()) l0_.resize(kL0Slots);
    const uint32_t n = wacquire(e);
    L0Slot& s = l0_[slot];
    if (s.tail == kNil) {
      s.head = n;
      l0_bits_[slot >> 6] |= uint64_t{1} << (slot & 63);
      l0_summary_ |= uint64_t{1} << (slot >> 6);
    } else {
      wnodes_[s.tail].next = n;
    }
    s.tail = n;
    ++wheel_pending_;
    return true;
  }
  // Future window within span: append to its level-1 slot. Window deltas
  // are capped at kL1Span (= 62), so at most 63 consecutive windows are
  // ever live and two live windows can never share a residue mod 64.
  if (l0_.empty()) l0_.resize(kL0Slots);
  const size_t l1 = static_cast<size_t>(w & kL1Mask);
  const uint32_t n = wacquire(e);
  L1Slot& s = l1_[l1];
  if (s.tail == kNil) {
    s.head = n;
    s.min = e;
    l1_bits_ |= uint64_t{1} << l1;
  } else {
    wnodes_[s.tail].next = n;
    if (e.before(s.min)) s.min = e;
  }
  s.tail = n;
  ++wheel_pending_;
  return true;
}

const EventQueue::Entry* EventQueue::l0_first() const {
  size_t word = l0_cursor_ >> 6;
  uint64_t bits = l0_bits_[word] & (~uint64_t{0} << (l0_cursor_ & 63));
  if (bits == 0) {
    // Words strictly after the cursor's. (2 << 63 wraps to 0, so the mask
    // correctly degenerates to "no later words" when word == 63.)
    const uint64_t later = l0_summary_ & ~((uint64_t{2} << word) - 1);
    if (later == 0) return nullptr;
    word = static_cast<size_t>(std::countr_zero(later));
    bits = l0_bits_[word];
  }
  const size_t slot = (word << 6) | static_cast<size_t>(std::countr_zero(bits));
  return &wnodes_[l0_[slot].head].entry;
}

const EventQueue::Entry* EventQueue::wheel_best() const {
  if (wheel_pending_ == 0) return nullptr;
  // Anything in the current window beats every future window.
  if (const Entry* e = l0_first()) return e;
  if (l1_bits_ == 0) return nullptr;
  // Earliest live window = smallest residue distance from the window after
  // the current one; windows are disjoint and ascending, so its cached min
  // is the wheel's minimum.
  const int base = static_cast<int>((cur_window_ + 1) & kL1Mask);
  const uint64_t rotated = std::rotr(l1_bits_, base);
  const size_t l1 =
      (static_cast<size_t>(base) + static_cast<size_t>(std::countr_zero(rotated))) &
      kL1Mask;
  return &l1_[l1].min;
}

void EventQueue::cascade(size_t l1) {
  // Relink the window's level-1 list into level-0 slots. The list is in
  // insertion order (ascending seq), every entry in one L0 slot shares its
  // one-tick timestamp, and any later direct insert into this window
  // appends behind with a larger seq — so slot FIFO order is exact
  // (time, seq) order.
  L1Slot& s = l1_[l1];
  uint32_t n = s.head;
  s.head = kNil;
  s.tail = kNil;
  l1_bits_ &= ~(uint64_t{1} << l1);
  while (n != kNil) {
    const uint32_t next = wnodes_[n].next;
    const size_t slot = static_cast<size_t>(
        static_cast<uint64_t>(wnodes_[n].entry.at.count()) & kL0Mask);
    wnodes_[n].next = kNil;
    L0Slot& d = l0_[slot];
    if (d.tail == kNil) {
      d.head = n;
      l0_bits_[slot >> 6] |= uint64_t{1} << (slot & 63);
      l0_summary_ |= uint64_t{1} << (slot >> 6);
    } else {
      wnodes_[d.tail].next = n;
    }
    d.tail = n;
    n = next;
  }
}

void EventQueue::advance_to(TimePoint t) {
  // Called with the global-min time about to pop. Any wheel entry in a
  // slot or window this advance skips would be earlier than that minimum —
  // a contradiction — so skipped slots are empty and the cursor can jump
  // straight to t. The cursor never moves backward: the heap holds any
  // entries behind it.
  if (t.count() < 0) return;
  const uint64_t tick = static_cast<uint64_t>(t.count());
  const uint64_t w = tick >> kL0Bits;
  if (w < cur_window_) return;
  const size_t slot = static_cast<size_t>(tick & kL0Mask);
  if (w == cur_window_) {
    if (slot > l0_cursor_) l0_cursor_ = slot;
    return;
  }
  cur_window_ = w;
  l0_cursor_ = slot;
  // The only level-1 slot that can be occupied at w's residue is w itself
  // (intermediate windows are empty by the minimality argument, and no
  // live window aliases another mod 64). Entries cascade before any event
  // of the window pops or any new event schedules into it.
  const size_t l1 = static_cast<size_t>(w & kL1Mask);
  if ((l1_bits_ >> l1) & 1) cascade(l1);
}

void EventQueue::pop_wheel(const Entry& e) {
  const size_t slot = static_cast<size_t>(
      static_cast<uint64_t>(e.at.count()) & kL0Mask);
  L0Slot& s = l0_[slot];
  const uint32_t n = s.head;
  assert(n != kNil && wnodes_[n].entry.seq == e.seq);
  s.head = wnodes_[n].next;
  if (s.head == kNil) {
    s.tail = kNil;
    l0_bits_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    if (l0_bits_[slot >> 6] == 0) l0_summary_ &= ~(uint64_t{1} << (slot >> 6));
  }
  wrelease(n);
  --wheel_pending_;
}

EventQueue::TimerHandle EventQueue::schedule_timer(TimePoint at,
                                                  Duration delay,
                                                  Action action) {
  size_t li = 0;
  while (li < lanes_used_ && lanes_[li].delay != delay) ++li;
  if (li == lanes_used_) {
    if (lanes_used_ >= kMaxLanes) {
      schedule_at(at, std::move(action));
      return {};
    }
    // Re-activate a retained lane slot when one exists (its ring keeps the
    // capacity from earlier runs); first-use order matches a fresh queue.
    if (lanes_used_ < lanes_.size()) {
      lanes_[li].delay = delay;
      lanes_[li].issued = 0;
    } else {
      lanes_.push_back(Lane{delay, {}});
    }
    ++lanes_used_;
  }
  Lane& lane = lanes_[li];
  if (!lane.fifo.empty() && at < lane.fifo.back().at) {
    // Out-of-order birth (caller's clock was not monotone): the lane
    // invariant would break, so this timer takes the ordinary heap path.
    schedule_at(at, std::move(action));
    return {};
  }
  const uint32_t idx = pool_->acquire();
  pool_->action(idx) = std::move(action);
  lane.fifo.push_back(Entry{at, next_seq_++, idx});
  ++lanes_pending_;
  return TimerHandle{static_cast<uint32_t>(li), epoch_, lane.issued++};
}

void EventQueue::cancel_timer(const TimerHandle& handle) {
  if (handle.empty() || handle.epoch != epoch_) return;
  assert(handle.lane < lanes_used_);
  Lane& lane = lanes_[handle.lane];
  // Tickets below the front's have popped; the lane is FIFO, so a pending
  // ticket sits at its distance from the front.
  const uint64_t front = lane.issued - lane.fifo.size();
  if (handle.ticket < front) return;
  Entry& e = lane.fifo.at(static_cast<size_t>(handle.ticket - front));
  if (e.idx == kNil) return;
  const uint32_t idx = e.idx;
  e.idx = kNil;  // before release: the closure's destructors may re-enter
  ++tombstones_;
  pool_->release(idx);
}

const EventQueue::Entry* EventQueue::best_entry(int* src) const {
  if (src != nullptr) *src = kSrcHeap;
  const Entry* best = heap_.empty() ? nullptr : &heap_[0];
  if (const Entry* w = wheel_best()) {
    if (best == nullptr || w->before(*best)) {
      best = w;
      if (src != nullptr) *src = kSrcWheel;
    }
  }
  for (size_t i = 0; i < lanes_used_; ++i) {
    if (lanes_[i].fifo.empty()) continue;
    const Entry& front = lanes_[i].fifo.front();
    if (best == nullptr || front.before(*best)) {
      best = &front;
      if (src != nullptr) *src = static_cast<int>(i);
    }
  }
  return best;
}

TimePoint EventQueue::pop_and_run(TimePoint* clock) {
  int src = kSrcHeap;
  const Entry top = *best_entry(&src);
  if (clock != nullptr) *clock = top.at;
  // Advance the wheel to the time about to pop (cascading the window it
  // lands in, if pending) before touching slot lists — if `top` is a
  // level-1 cached min, this is what moves it into its level-0 slot.
  advance_to(top.at);
  if (src == kSrcWheel) {
    pop_wheel(top);
  } else if (src == kSrcHeap) {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  } else {
    lanes_[static_cast<size_t>(src)].fifo.pop_front();
    --lanes_pending_;
  }
  if (top.idx == kNil) {  // tombstone: the clock moved, nothing runs
    --tombstones_;
    return top.at;
  }
  // Recycle before running: the action may schedule follow-up events, which
  // then reuse this very slot instead of growing the pool.
  Action action = std::move(pool_->action(top.idx));
  pool_->release(top.idx);
  action();
  return top.at;
}

void EventQueue::release_wheel_entries() {
  uint64_t summary = l0_summary_;
  while (summary != 0) {
    const size_t word = static_cast<size_t>(std::countr_zero(summary));
    summary &= summary - 1;
    uint64_t bits = l0_bits_[word];
    while (bits != 0) {
      const size_t slot = (word << 6) | static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      for (uint32_t n = l0_[slot].head; n != kNil;) {
        const uint32_t next = wnodes_[n].next;
        pool_->release(wnodes_[n].entry.idx);
        wrelease(n);
        n = next;
      }
      l0_[slot] = L0Slot{};
    }
    l0_bits_[word] = 0;
  }
  l0_summary_ = 0;
  uint64_t live = l1_bits_;
  while (live != 0) {
    const size_t l1 = static_cast<size_t>(std::countr_zero(live));
    live &= live - 1;
    for (uint32_t n = l1_[l1].head; n != kNil;) {
      const uint32_t next = wnodes_[n].next;
      pool_->release(wnodes_[n].entry.idx);
      wrelease(n);
      n = next;
    }
    l1_[l1] = L1Slot{};
  }
  l1_bits_ = 0;
  wheel_pending_ = 0;
}

void EventQueue::save_events(SavedQueue* out) const {
  out->events.clear();
  out->events.reserve(heap_.size() + wheel_pending_);
  for (const Entry& e : heap_) {
    out->events.push_back(SavedEvent{e.at, e.seq, pool_->action(e.idx)});
  }
  out->timer_actions.clear();
  out->lanes.resize(lanes_used_);
  for (size_t i = 0; i < lanes_used_; ++i) {
    const Ring& fifo = lanes_[i].fifo;
    SavedLane& lane = out->lanes[i];
    lane.delay = lanes_[i].delay;
    lane.timers.clear();
    lane.timers.reserve(fifo.size());
    for (size_t j = 0; j < fifo.size(); ++j) {
      const Entry& e = fifo.at(j);
      uint32_t action = kNil;
      if (e.idx != kNil) {
        action = static_cast<uint32_t>(out->timer_actions.size());
        out->timer_actions.push_back(pool_->action(e.idx));
      }
      lane.timers.push_back(SavedTimer{e.at, e.seq, action});
    }
  }
  // Wheel walk: occupied L0 slots via the summary bitmap, then live L1
  // windows — the release_wheel_entries traversal, copying instead of
  // releasing.
  const auto save_list = [this, out](uint32_t head) {
    for (uint32_t n = head; n != kNil; n = wnodes_[n].next) {
      const Entry& e = wnodes_[n].entry;
      out->events.push_back(SavedEvent{e.at, e.seq, pool_->action(e.idx)});
    }
  };
  uint64_t summary = l0_summary_;
  while (summary != 0) {
    const size_t word = static_cast<size_t>(std::countr_zero(summary));
    summary &= summary - 1;
    uint64_t bits = l0_bits_[word];
    while (bits != 0) {
      const size_t slot =
          (word << 6) | static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      save_list(l0_[slot].head);
    }
  }
  uint64_t live = l1_bits_;
  while (live != 0) {
    const size_t l1 = static_cast<size_t>(std::countr_zero(live));
    live &= live - 1;
    save_list(l1_[l1].head);
  }
  out->next_seq = next_seq_;
}

void EventQueue::restore_events(const SavedQueue& saved) {
  clear();
  heap_.reserve(saved.events.size());
  for (const SavedEvent& ev : saved.events) {
    const uint32_t idx = pool_->acquire();
    pool_->action(idx) = ev.action;
    heap_.push_back(Entry{ev.at, ev.seq, idx});
    sift_up(heap_.size() - 1);
  }
  // The wheel cursor restarted at window 0 (clear); the first pop's
  // advance_to jumps it to the popping time, and every event scheduled from
  // then on routes exactly as a cold run would.
  assert(saved.lanes.size() <= kMaxLanes);
  for (size_t i = 0; i < saved.lanes.size(); ++i) {
    if (i == lanes_.size()) lanes_.emplace_back();
    const SavedLane& from = saved.lanes[i];
    Lane& lane = lanes_[i];
    lane.delay = from.delay;
    lane.issued = from.timers.size();
    for (const SavedTimer& t : from.timers) {
      uint32_t idx = kNil;
      if (t.action != kNil) {
        idx = pool_->acquire();
        pool_->action(idx) = saved.timer_actions[t.action];
      } else {
        ++tombstones_;
      }
      lane.fifo.push_back(Entry{t.at, t.seq, idx});
    }
    lanes_pending_ += from.timers.size();
  }
  lanes_used_ = saved.lanes.size();
  next_seq_ = saved.next_seq;
}

void EventQueue::clear() {
  for (const Entry& e : heap_) pool_->release(e.idx);
  heap_.clear();
  for (size_t i = 0; i < lanes_used_; ++i) {
    Ring& fifo = lanes_[i].fifo;
    for (size_t j = 0; j < fifo.size(); ++j) {
      if (fifo.at(j).idx != kNil) pool_->release(fifo.at(j).idx);
    }
    fifo.clear();
  }
  // Deactivate (but retain) the lane table: a reused queue must rebuild
  // lanes in the same order a fresh queue would, so warm runs take
  // byte-identical scheduling paths (including the table-full fallback) —
  // while every ring keeps its capacity.
  lanes_used_ = 0;
  lanes_pending_ = 0;
  tombstones_ = 0;
  ++epoch_;  // outstanding timer handles go stale
  // Rewind the wheel to window 0 with the node arena and L0 slot table
  // retained, so a warm run schedules through the wheel exactly like a
  // cold one without allocating.
  if (wheel_pending_ != 0) release_wheel_entries();
  cur_window_ = 0;
  l0_cursor_ = 0;
  next_seq_ = 0;
}

}  // namespace gremlin::sim
