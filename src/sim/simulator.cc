#include "sim/simulator.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dsps::sim {

SimTime Simulator::SanitizeTime(SimTime t) const {
  DSPS_DCHECK(std::isfinite(t));
  if (std::isnan(t)) return now_;
  if (std::isinf(t)) {
    return t > 0 ? std::numeric_limits<SimTime>::max() : now_;
  }
  return t < now_ ? now_ : t;
}

void Simulator::Schedule(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;  // NaN falls through; SanitizeTime catches it.
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime t, Callback fn) {
  DSPS_DCHECK(fn != nullptr);
  Push(SanitizeTime(t), std::move(fn), /*cancellable=*/false);
}

TimerId Simulator::ScheduleCancellable(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;
  return ScheduleCancellableAt(now_ + delay, std::move(fn));
}

TimerId Simulator::ScheduleCancellableAt(SimTime t, Callback fn) {
  DSPS_DCHECK(fn != nullptr);
  uint32_t slot = Push(SanitizeTime(t), std::move(fn), /*cancellable=*/true);
  // A counter in the high bits keeps handles unique across slot reuse
  // and increasing in scheduling order.
  TimerId timer = (next_timer_++ << 32) | slot;
  slot_timer_[slot] = timer;
  return timer;
}

bool Simulator::Cancel(TimerId timer) {
  if (timer == kInvalidTimer) return false;
  uint32_t slot = static_cast<uint32_t>(timer);
  if (slot >= slot_timer_.size() || slot_timer_[slot] != timer) return false;
  RemoveAt(slot_pos_[slot]);
  slot_timer_[slot] = kInvalidTimer;
  slot_fn_[slot] = nullptr;
  free_slots_.push_back(slot);
  return true;
}

uint32_t Simulator::Push(SimTime t, Callback fn, bool cancellable) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_fn_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slot_fn_.size());
    slot_fn_.push_back(std::move(fn));
    slot_pos_.push_back(0);
    slot_timer_.push_back(kInvalidTimer);
  }
  heap_.push_back(Key{t, next_seq_++, slot, cancellable ? 1u : 0u});
  SiftUp(heap_.size() - 1);
  return slot;
}

void Simulator::RemoveAt(size_t pos) {
  size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  Key moved = heap_[last];
  heap_.pop_back();
  Place(pos, moved);
  // The relocated key may violate the heap property in either direction
  // relative to its new neighborhood.
  if (pos > 0 && Before(moved, heap_[(pos - 1) / 4])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulator::SiftUp(size_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void Simulator::SiftDown(size_t pos) {
  const Key key = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t first = 4 * pos + 1;
    if (first >= n) break;
    size_t best = first;
    size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], key)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, key);
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const Key top = heap_[0];
  RemoveAt(0);
  DSPS_CHECK(top.time >= now_);
  now_ = top.time;
  ++events_executed_;
  // The callback leaves the slab and its slot is recycled before it runs,
  // so the event can freely schedule (and cancel) more events.
  Callback fn = std::move(slot_fn_[top.slot]);
  slot_timer_[top.slot] = kInvalidTimer;
  free_slots_.push_back(top.slot);
  fn();
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    Step();
  }
  // Advance the clock to the horizon whenever every event at or before `t`
  // has executed — including when Stop() fired during the *final* such
  // event (there was nothing left to abort, so the run did complete and
  // time-series windows opened afterwards must not see a stale clock).
  // Only a stop with work still pending keeps the clock at the stopping
  // event's time.
  if (now_ < t && (heap_.empty() || heap_.front().time > t)) now_ = t;
}

}  // namespace dsps::sim
