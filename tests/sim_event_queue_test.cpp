#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "util/error.hpp"

namespace hetflow::sim {
namespace {

TEST(EventQueue, StartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(3.0, [&] { fired.push_back(3); });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(2.0, [&] { fired.push_back(2); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, SameTimeFifoTieBreak) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&fired, i] { fired.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(2.0, [&] {
    q.schedule_after(0.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, RejectsPastAndInvalid) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(0.5, [] {}), util::InternalError);
  EXPECT_THROW(q.schedule_at(2.0, nullptr), util::InternalError);
  EXPECT_THROW(
      q.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
      util::InternalError);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  q.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, PendingTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(3.0, [&] { fired.push_back(3.0); });
  q.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_EQ(q.now(), 7.5);
  EXPECT_THROW(q.run_until(5.0), util::InternalError);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      q.schedule_after(1.0, recurse);
    }
  };
  q.schedule_at(0.0, recurse);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99.0);
}

TEST(EventQueue, CancelledHeadDoesNotAdvanceClockInRunUntil) {
  EventQueue q;
  const EventId id = q.schedule_at(1.0, [] {});
  bool fired = false;
  q.schedule_at(5.0, [&] { fired = true; });
  q.cancel(id);
  q.run_until(2.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.now(), 2.0);
}

TEST(EventQueue, ZeroDelayFiresAtCurrentTime) {
  EventQueue q;
  q.schedule_at(4.0, [&] {
    q.schedule_after(0.0, [&] { EXPECT_EQ(q.now(), 4.0); });
  });
  q.run();
  EXPECT_EQ(q.now(), 4.0);
}

TEST(EventQueue, CancelCompactsHeapCarcasses) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule_at(static_cast<double>(i) + 1.0, [] {}));
  }
  EXPECT_TRUE(q.debug_consistent());
  EXPECT_EQ(q.heap_entries(), 1000u);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  // Lazy deletion with compaction: carcasses never exceed ~half the live
  // events for long, so mass cancellation cannot leak heap entries.
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_LT(q.heap_entries(), 500u);
  EXPECT_TRUE(q.debug_consistent());
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_EQ(q.heap_carcasses(), 0u);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueue, HeapStaysBoundedUnderChurn) {
  // Schedule/cancel churn (the failure-injection pattern): the heap must
  // track the live population, not the cancellation history.
  EventQueue q;
  std::vector<EventId> live;
  double when = 1.0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 20; ++i) {
      live.push_back(q.schedule_at(when, [] {}));
      when += 0.5;
    }
    // Cancel all but one of this round's events.
    for (std::size_t i = live.size() - 20; i + 1 < live.size(); ++i) {
      q.cancel(live[i]);
    }
  }
  EXPECT_EQ(q.pending(), 100u);
  EXPECT_TRUE(q.debug_consistent());
  EXPECT_LE(q.heap_entries(), 2 * q.pending() + 8);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueue, CancelledEntriesSkippedAcrossCompaction) {
  // Interleave cancels with execution so step() crosses both live and
  // carcass entries, before and after a compaction pass.
  EventQueue q;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    const double t = static_cast<double>(i) + 1.0;
    ids.push_back(q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); }));
  }
  for (int i = 0; i < 50; i += 2) {  // cancel even slots
    q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  q.run();
  ASSERT_EQ(fired.size(), 25u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_DOUBLE_EQ(fired[i], 2.0 * static_cast<double>(i) + 2.0);
  }
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueue, RunUntilWithCarcassesAtHeadBeyondLimit) {
  // After draining up to `limit`, the heap head is a pile of cancelled
  // carcasses whose timestamps lie beyond the limit. run_until must stop
  // the clock at `limit` (not at a carcass time), leave the live tail
  // pending, and keep the bookkeeping audit green.
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(q.now()); });
  std::vector<EventId> doomed;
  for (int i = 0; i < 64; ++i) {
    doomed.push_back(q.schedule_at(5.0 + 0.01 * i, [] {}));
  }
  bool tail_fired = false;
  q.schedule_at(50.0, [&] { tail_fired = true; });
  // Cancel a prefix only — enough carcasses survive compaction to sit at
  // the head when run_until(2.0) returns.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(q.cancel(doomed[i]));
  }
  EXPECT_TRUE(q.debug_consistent());
  const SimTime reached = q.run_until(2.0);
  EXPECT_EQ(reached, 2.0);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_FALSE(tail_fired);
  EXPECT_EQ(q.pending(), 45u);  // 44 survivors + the tail event
  EXPECT_TRUE(q.debug_consistent());
  q.run();
  EXPECT_TRUE(tail_fired);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueue, CompactionMidDrainKeepsRunUntilExact) {
  // A callback that mass-cancels future events forces a compaction while
  // run_until is mid-drain; the remaining schedule must be unaffected.
  EventQueue q;
  std::vector<double> fired;
  std::vector<EventId> future;
  for (int i = 0; i < 200; ++i) {
    future.push_back(q.schedule_at(10.0 + static_cast<double>(i), [] {}));
  }
  q.schedule_at(1.0, [&] {
    fired.push_back(q.now());
    // Cancel 199 of 200 future events: carcasses overwhelm live events
    // and compaction fires inside the drain loop.
    for (std::size_t i = 0; i + 1 < future.size(); ++i) {
      EXPECT_TRUE(q.cancel(future[i]));
    }
    EXPECT_TRUE(q.debug_consistent());
  });
  q.schedule_at(2.0, [&] { fired.push_back(q.now()); });
  const SimTime reached = q.run_until(3.0);
  EXPECT_EQ(reached, 3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(q.pending(), 1u);  // the lone surviving future event
  EXPECT_LT(q.heap_entries(), 100u);
  EXPECT_TRUE(q.debug_consistent());
  q.run();
  EXPECT_EQ(q.now(), 10.0 + 199.0);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueue, ConsistencyHoldsThroughCancelHeavyDrain) {
  // Audit the bookkeeping invariant at every step of a drain where every
  // other event cancels a later one (the timeout-watchdog pattern: the
  // completion event cancels its watchdog or vice versa).
  EventQueue q;
  std::vector<EventId> watchdogs(100, 0);
  for (int i = 0; i < 100; ++i) {
    const double t = static_cast<double>(i) + 1.0;
    const auto slot = static_cast<std::size_t>(i);
    watchdogs[slot] = q.schedule_at(t + 0.5, [] { FAIL() << "watchdog"; });
    q.schedule_at(t, [&q, &watchdogs, slot] {
      EXPECT_TRUE(q.cancel(watchdogs[slot]));
    });
  }
  while (!q.empty()) {
    ASSERT_TRUE(q.debug_consistent());
    q.step();
  }
  EXPECT_TRUE(q.debug_consistent());
  // Deletion is lazy, so the final cancelled watchdog may linger as a
  // carcass — but every remaining entry must be a carcass, none live.
  EXPECT_EQ(q.heap_entries(), q.heap_carcasses());
  EXPECT_EQ(q.executed(), 100u);
}

class EventStressSweep : public ::testing::TestWithParam<int> {};

TEST_P(EventStressSweep, ManyEventsAllExecuteInOrder) {
  EventQueue q;
  const int n = GetParam();
  std::vector<double> times;
  for (int i = n - 1; i >= 0; --i) {
    q.schedule_at(static_cast<double>(i % 17) + 0.001 * i,
                  [&times, &q] { times.push_back(q.now()); });
  }
  q.run();
  ASSERT_EQ(times.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventStressSweep,
                         ::testing::Values(10, 1000, 20000));

// Regression: >10^6 sequential `now + dt` hops with a binary-inexact dt.
// Accumulated rounding once pushed a computed deadline a few ulps below
// now() deep into long runs, and schedule_at aborted what was a healthy
// simulation. The clock must stay monotonic and every event must fire.
TEST(EventQueue, MillionSequentialHopsKeepClockMonotonic) {
  EventQueue q;
  constexpr std::uint64_t kEvents = 1'200'000;
  const double dt = 0.1;  // not representable in binary — error accrues
  std::uint64_t fired = 0;
  double last_now = -1.0;
  std::function<void()> hop = [&] {
    EXPECT_GE(q.now(), last_now);
    last_now = q.now();
    if (++fired < kEvents) {
      // Recompute the target from an accumulated product, not from
      // now(): this is the caller-side arithmetic that drifts.
      q.schedule_at(static_cast<double>(fired) * dt, hop);
    }
  };
  q.schedule_at(0.0, hop);
  q.run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(q.executed(), kEvents);
  EXPECT_NEAR(q.now(), static_cast<double>(kEvents - 1) * dt, 1.0);
}

// The clamp itself: a deadline within rounding slack of now() fires
// immediately at now(); a deadline clearly in the past still fails.
TEST(EventQueue, NearPastWithinSlackClampsToNow) {
  EventQueue q;
  q.schedule_at(1000.0, [] {});
  q.run();
  ASSERT_EQ(q.now(), 1000.0);
  // slack = 1e-9 * |now| = 1e-6 here; an ulp-scale shortfall clamps...
  double fired_at = -1.0;
  q.schedule_at(1000.0 - 1e-7, [&] { fired_at = q.now(); });
  q.run();
  EXPECT_EQ(fired_at, 1000.0);
  EXPECT_EQ(q.now(), 1000.0);
  // ...but a real gap is still an upstream logic bug.
  EXPECT_THROW(q.schedule_at(1000.0 - 1e-3, [] {}), util::InternalError);
}

// --- same-timestamp ties under cancellation ----------------------------
// Completions, retries and watchdogs of one instant share a timestamp;
// these pin the FIFO order and carcass handling inside such a tie group.

TEST(EventQueueTies, RunUntilRunsTheWholeTieGroupInFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(1.0, [&] { fired.push_back(0); });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(1.0, [&] { fired.push_back(2); });
  q.schedule_at(2.0, [&] { fired.push_back(9); });
  q.run_until(1.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(q.now(), 2.0);
}

TEST(EventQueueTies, StepSkipsCarcassesAtHeadAndAmongTies) {
  EventQueue q;
  std::vector<int> fired;
  const EventId head = q.schedule_at(1.0, [&] { fired.push_back(-1); });
  q.schedule_at(1.0, [&] { fired.push_back(0); });
  const EventId mid = q.schedule_at(1.0, [&] { fired.push_back(-2); });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.cancel(head);
  q.cancel(mid);
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());  // only carcasses were left
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.executed(), 2u);  // counts executed events, not carcasses
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueueTies, ZeroDelayEventJoinsTheTieGroupBehindItsSiblings) {
  // The requeue / immediate-retry pattern: an event scheduled at the
  // current instant runs after the siblings already queued for it, and
  // before the clock moves on.
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(1.0, [&] {
    fired.push_back(0);
    q.schedule_after(0.0, [&] { fired.push_back(2); });
  });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(3.0, [&] { fired.push_back(9); });
  q.run_until(1.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTies, CallbackCancellingATieSiblingSuppressesIt) {
  // The watchdog-vs-completion race inside one timestamp: the first
  // event cancels the second, which must never run.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  ids.push_back(q.schedule_at(1.0, [&] {
    fired.push_back(0);
    EXPECT_TRUE(q.cancel(ids[1]));
  }));
  ids.push_back(q.schedule_at(1.0, [&] { fired.push_back(-1); }));
  ids.push_back(q.schedule_at(1.0, [&] { fired.push_back(2); }));
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueueTies, RunUntilSlicesMatchStepLoopEventForEvent) {
  // Property: over a schedule dense with same-time ties, cancellations
  // and mid-run insertions, advancing in run_until slices (one slice per
  // tie timestamp) executes the exact event sequence of the step() loop.
  const auto build_and_run = [](bool sliced) {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 300; ++i) {
      const double t = static_cast<double>(i % 7) + 1.0;  // heavy ties
      ids.push_back(q.schedule_at(t, [&order, &q, i] {
        order.push_back(i);
        if (i % 11 == 0) {
          // Mid-run insertion at the current timestamp.
          q.schedule_after(0.0, [&order, i] { order.push_back(1000 + i); });
        }
      }));
    }
    for (int i = 0; i < 300; i += 5) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    if (sliced) {
      for (int t = 1; t <= 7; ++t) {
        q.run_until(static_cast<double>(t));
      }
      EXPECT_TRUE(q.empty());
    } else {
      while (q.step()) {
      }
    }
    return order;
  };
  const std::vector<int> stepped = build_and_run(false);
  const std::vector<int> sliced = build_and_run(true);
  EXPECT_EQ(stepped, sliced);
  EXPECT_FALSE(stepped.empty());
}

TEST(EventQueueTies, MutualCancellationRacesWithinOneTimestamp) {
  // Both directions of the watchdog/completion race at one timestamp:
  // pair A's first-by-seq member cancels its partner ahead in the tie
  // group, pair B's first member cancels a partner further down.
  // Whichever side fires first must win, and the loser must never
  // deliver — across several pairs at a single instant.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids(6);
  ids[0] = q.schedule_at(2.0, [&] {  // "completion" A cancels watchdog A
    fired.push_back(0);
    EXPECT_TRUE(q.cancel(ids[1]));
  });
  ids[1] = q.schedule_at(2.0, [&] { fired.push_back(-1); });
  ids[2] = q.schedule_at(2.0, [&] {  // "watchdog" B cancels completion B
    fired.push_back(2);
    EXPECT_TRUE(q.cancel(ids[3]));
  });
  ids[3] = q.schedule_at(2.0, [&] { fired.push_back(-3); });
  ids[4] = q.schedule_at(2.0, [&] {  // cancel of an already-run event: no-op
    fired.push_back(4);
    EXPECT_FALSE(q.cancel(ids[0]));
  });
  ids[5] = q.schedule_at(2.0, [&] { fired.push_back(5); });
  q.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 4, 5}));
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueueTies, CancelStormInsideATieGroupCompactsSafely) {
  // A tie-group member cancels a large population of future events,
  // tripping the carcass-ratio compaction while its siblings are still
  // queued. They must still run FIFO and the later survivors must keep.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> future;
  for (int i = 0; i < 64; ++i) {
    future.push_back(
        q.schedule_at(5.0, [&fired, i] { fired.push_back(100 + i); }));
  }
  q.schedule_at(1.0, [&] {
    fired.push_back(0);
    for (std::size_t i = 0; i < future.size(); i += 2) {
      EXPECT_TRUE(q.cancel(future[i]));  // 32 cancels -> compact() fires
    }
  });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(1.0, [&] { fired.push_back(2); });
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.step());
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_LT(q.heap_carcasses(), 32u);  // compaction ran mid-storm
  EXPECT_TRUE(q.debug_consistent());
  q.run();
  EXPECT_EQ(q.executed(), 3u + 32u);  // surviving half of the future group
  EXPECT_EQ(fired.size(), 3u + 32u);
  EXPECT_EQ(fired[3], 101);
  EXPECT_EQ(q.now(), 5.0);
  EXPECT_TRUE(q.debug_consistent());
}

TEST(EventQueueTies, ConsistencyHoldsThroughCancelHeavyTieGroups) {
  // Property: a step loop over a schedule dense with same-time ties,
  // up-front cancels and in-group cancels keeps the slab/heap/carcass
  // accounting consistent after every single step.
  EventQueue q;
  std::vector<EventId> ids;
  std::size_t ran = 0;
  for (int i = 0; i < 400; ++i) {
    const double t = static_cast<double>(i % 5) + 1.0;
    ids.push_back(q.schedule_at(t, [&q, &ids, &ran, i] {
      ++ran;
      // Every third callback cancels a later sibling (some already dead:
      // cancel() returning false on those must stay harmless).
      if (i % 3 == 0) {
        q.cancel(ids[static_cast<std::size_t>((i + 7) % 400)]);
      }
    }));
  }
  for (int i = 0; i < 400; i += 4) {
    q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  ASSERT_TRUE(q.debug_consistent());
  while (q.step()) {
    ASSERT_TRUE(q.debug_consistent());
  }
  EXPECT_EQ(q.executed(), ran);
  EXPECT_GT(ran, 0u);
  EXPECT_EQ(q.pending(), 0u);
}

// Slab slot reuse must never resurrect a cancelled id: the generation
// stamp in the EventId changes when the slot is recycled.
TEST(EventQueue, RecycledSlotDoesNotResurrectOldId) {
  EventQueue q;
  const EventId stale = q.schedule_at(1.0, [] {});
  ASSERT_TRUE(q.cancel(stale));
  // Reuses the freed slot (same index, bumped generation).
  bool fired = false;
  const EventId fresh = q.schedule_at(2.0, [&] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.cancel(stale));  // stale id must not hit the new event
  q.run();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace hetflow::sim
