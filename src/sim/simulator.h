#ifndef DSPS_SIM_SIMULATOR_H_
#define DSPS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace dsps::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Handle to a cancellable scheduled event. 0 is the invalid handle; events
/// scheduled through the plain Schedule/ScheduleAt API carry no handle.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Deterministic single-threaded discrete-event simulator.
///
/// Events are executed in (time, insertion order) order, so two events
/// scheduled for the same instant run in the order they were scheduled —
/// this makes every run exactly reproducible.
///
/// The queue is an indexed 4-ary heap of 24-byte trivially-copyable keys
/// {time, seq, slot}; the callbacks stay put in a recycled slab indexed by
/// `slot`, so sifting moves only keys. A slot→heap-position array lets
/// Cancel() remove a cancellable event in O(log n) — its heap entry and
/// slot are reclaimed immediately instead of lingering as dud entries.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now. Negative delays clamp
  /// to zero (run "immediately", after already-queued same-time events).
  /// Non-finite delays are a DCHECK failure; release builds clamp NaN to
  /// zero delay and +Inf to the largest finite time.
  void Schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at absolute time `t` (clamped to now()). Non-finite
  /// `t` is a DCHECK failure; release builds clamp NaN/-Inf to now() and
  /// +Inf to the largest finite time so the heap ordering stays valid.
  void ScheduleAt(SimTime t, Callback fn);

  /// Like Schedule/ScheduleAt, but returns a handle that Cancel() accepts.
  /// Cancellation removes the event from the heap immediately — use for
  /// retry/timeout timers that are usually disarmed before they fire.
  TimerId ScheduleCancellable(SimTime delay, Callback fn);
  TimerId ScheduleCancellableAt(SimTime t, Callback fn);

  /// Cancels a timer scheduled with ScheduleCancellable[At]. Returns true
  /// if the event was still pending (and is now removed), false if it
  /// already fired, was already cancelled, or the handle is invalid.
  bool Cancel(TimerId timer);

  /// Runs until the event queue is empty or Stop() is called.
  void Run();

  /// Runs until simulated time would exceed `t`; events at exactly `t` are
  /// executed. The clock advances to `t` whenever every event at or before
  /// `t` has executed — including when Stop() fired during the final such
  /// event — so callers can treat a completed RunUntil(t) as "time is now
  /// t". Only a Stop() with events at or before `t` still pending leaves
  /// the clock at the stopping event's time.
  void RunUntil(SimTime t);

  /// Executes at most one pending event. Returns false if none remained.
  bool Step();

  /// Makes Run()/RunUntil() return after the current event.
  void Stop() { stopped_ = true; }

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events waiting in the queue.
  size_t pending_events() const { return heap_.size(); }

 private:
  /// Heap entry: the ordering key plus the slab slot of the callback.
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    /// Set for ScheduleCancellable events, the only ones whose heap
    /// position is tracked (fills what would be padding).
    uint32_t cancellable;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  /// True when the event `a` must pop before the event `b`: (time, seq)
  /// lexicographic — the strict total order that makes every heap
  /// implementation pop in the identical sequence.
  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  SimTime SanitizeTime(SimTime t) const;
  /// Parks `fn` in a slab slot and pushes its key; returns the slot.
  uint32_t Push(SimTime t, Callback fn, bool cancellable);
  /// Removes the heap entry at `pos`, restoring the heap property.
  void RemoveAt(size_t pos);
  /// Writes `key` at heap position `pos`, recording the position of a
  /// cancellable event (plain events pay nothing for cancellability).
  void Place(size_t pos, const Key& key) {
    heap_[pos] = key;
    if (key.cancellable != 0) {
      slot_pos_[key.slot] = static_cast<uint32_t>(pos);
    }
  }
  /// Moves the key at `pos` toward the root / the leaves until the heap
  /// property holds again.
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_timer_ = 1;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  /// Indexed 4-ary heap: children of i at 4i+1..4i+4, parent at (i-1)/4.
  /// Flatter than a binary heap, so pops touch ~half the cache lines.
  std::vector<Key> heap_;
  /// Callback slab, indexed by slot. A popped event's callback is moved
  /// out and its slot recycled (LIFO) before the callback runs.
  std::vector<Callback> slot_fn_;
  /// Heap position of each slot holding a cancellable event.
  std::vector<uint32_t> slot_pos_;
  /// Handle of each slot's cancellable occupant (kInvalidTimer for plain
  /// events and free slots). A TimerId carries its slot in the low 32
  /// bits, so Cancel() needs no lookup table: the handle is live exactly
  /// when its slot still holds it.
  std::vector<TimerId> slot_timer_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_SIMULATOR_H_
