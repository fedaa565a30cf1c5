// Discrete-event simulation core.
//
// All of hetflow's "hardware" runs in virtual time on top of this queue:
// devices, interconnect links and the runtime schedule callbacks at future
// simulated instants. Determinism contract: two events at the same
// timestamp fire in the order they were scheduled (FIFO tie-break by a
// monotonically increasing sequence number), so a given seed always yields
// the identical trace.
//
// Storage: callbacks live in a slab of recycled slots (free-list arena)
// instead of a node-based map — scheduling an event at 10^6-task scale is
// a slot reuse plus a heap push, with the callback capture stored inline
// in the slot (util::SmallFunction). EventIds encode (slot, generation)
// so a stale cancel of a recycled slot is detected in O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/small_function.hpp"

namespace hetflow::sim {

/// Simulated time in seconds since simulation start.
using SimTime = double;

/// Handle used to cancel a pending event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// 64 bytes of inline capture: the runtime's largest callback (`this`,
  /// task, device id, two doubles, a size_t) fits without a heap hop.
  using Callback = util::SmallFunction<void(), 64>;

  /// Current simulated time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when`. Returns an id that
  /// may be passed to `cancel`. A `when` within floating-point rounding
  /// distance below now() is clamped to now() (accumulated fp error over
  /// ~10^6 events lands exactly there); anything further in the past
  /// still throws — that is API misuse, not rounding.
  EventId schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_after(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was
  /// cancelled before, or never existed. Amortized O(1): deletion is
  /// lazy, but once cancelled carcasses outnumber half the live events
  /// the heap is compacted, so a cancel-heavy run (failure injection,
  /// timeout retries) never holds more than ~1.5x the live entries.
  bool cancel(EventId id);

  /// Runs events until the queue drains. Returns the time of the last
  /// event executed (or `now()` if none ran).
  SimTime run();

  /// Runs events with timestamp <= `limit`; afterwards now() == max(last
  /// event time, limit) if any event ran, else limit.
  SimTime run_until(SimTime limit);

  /// Executes exactly one event if available. Returns false on empty.
  bool step();

  bool empty() const noexcept { return live_events_ == 0; }
  std::size_t pending() const noexcept { return live_events_; }
  /// Largest number of live events ever pending at once (observability:
  /// the simulator's working-set high-water mark).
  std::size_t peak_pending() const noexcept { return peak_pending_; }
  /// Total events executed since construction (for overhead accounting).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Heap entries currently held, live + cancelled carcasses
  /// (observability for the compaction bound).
  std::size_t heap_entries() const noexcept { return heap_.size(); }
  /// Cancelled entries still sitting in the heap.
  std::size_t heap_carcasses() const noexcept { return carcasses_; }
  /// Slab slots currently allocated (live + free-listed; observability
  /// for the arena's high-water mark).
  std::size_t slab_slots() const noexcept { return slots_.size(); }
  /// O(heap + slab) bookkeeping audit: every live event has exactly one
  /// heap entry and an occupied slot, the carcass counter matches the
  /// heap, and the free list is exactly the unoccupied slots.
  /// Exercised by `hetflow_check --selftest` and the unit tests.
  bool debug_consistent() const;

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  /// One arena slot. Occupied iff `fn` is non-null; `gen` distinguishes
  /// reuses of the same slot (ids of executed/cancelled events go stale).
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xffffffffU;

  static std::uint32_t slot_index(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t slot_gen(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }

  bool is_live(EventId id) const noexcept {
    const std::uint32_t index = slot_index(id);
    return index < slots_.size() && slots_[index].gen == slot_gen(id) &&
           slots_[index].fn != nullptr;
  }

  // Min-heap over a plain vector (std::push_heap/pop_heap) so compaction
  // can walk and rebuild the container — std::priority_queue hides it.
  std::vector<Event> heap_;
  // Callback arena: slots recycled through an intrusive free list.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t carcasses_ = 0;
  std::uint64_t executed_ = 0;
  SimTime now_ = 0.0;

  /// Takes the callback out of a live event's slot and retires the slot.
  /// Returns a null callback for stale ids (cancelled / already run).
  Callback take_callback(EventId id) noexcept;
  /// Retires a slot: bumps the generation and links it into the free list.
  void retire_slot(std::uint32_t index) noexcept;
  Event pop_top() noexcept;
  /// Drops every carcass and re-heapifies; called when carcasses exceed
  /// half the live events.
  void compact();
};

}  // namespace hetflow::sim
