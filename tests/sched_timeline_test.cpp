// InsertionTimeline against a reference oracle: the plain sorted-vector
// timeline below (binary search past slots that end at or before `ready`,
// then a linear scan of the gaps) is the definition of the answer. The
// production timeline prunes its scan with per-block gap summaries; every
// probe here must return the same double start as the oracle, compared
// with ==, across seeded booking sequences that cross many blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sched/graph_utils.hpp"
#include "util/rng.hpp"

namespace hetflow::sched {
namespace {

/// The reference: one sorted slot vector per device, scanned linearly.
class LinearTimeline {
 public:
  struct Slot {
    double start;
    double end;
  };

  explicit LinearTimeline(std::size_t devices) : slots_(devices) {}

  double earliest_fit(hw::DeviceId device, double ready,
                      double duration) const {
    const std::vector<Slot>& slots = slots_[device];
    auto it = std::partition_point(
        slots.begin(), slots.end(),
        [ready](const Slot& slot) { return slot.end <= ready; });
    double cursor = ready;
    for (; it != slots.end(); ++it) {
      if (cursor + duration <= it->start) {
        return cursor;
      }
      cursor = std::max(cursor, it->end);
    }
    return cursor;
  }

  void book(hw::DeviceId device, double start, double duration) {
    std::vector<Slot>& slots = slots_[device];
    const Slot inserted{start, start + duration};
    slots.insert(std::upper_bound(slots.begin(), slots.end(), inserted,
                                  [](const Slot& a, const Slot& b) {
                                    return a.start < b.start;
                                  }),
                 inserted);
  }

  const std::vector<Slot>& slots(hw::DeviceId device) const {
    return slots_[device];
  }

 private:
  std::vector<std::vector<Slot>> slots_;
};

/// `value` moved `steps` ulps up (steps > 0) or down (steps < 0).
double ulps(double value, int steps) {
  const double toward = steps > 0 ? INFINITY : -INFINITY;
  for (int i = 0; i < std::abs(steps); ++i) {
    value = std::nextafter(value, toward);
  }
  return std::max(value, 0.0);
}

/// Drives the oracle and the timeline through one seeded sequence of
/// probes and bookings on `devices` devices and compares every probe.
class Harness {
 public:
  Harness(std::size_t devices, std::uint64_t seed)
      : devices_(devices), oracle_(devices), timeline_(devices), rng_(seed) {}

  /// Probes (device, ready, duration) on both and requires equal starts.
  double probe(hw::DeviceId device, double ready, double duration) {
    const double expected = oracle_.earliest_fit(device, ready, duration);
    const double actual = timeline_.earliest_fit(device, ready, duration);
    EXPECT_EQ(actual, expected)
        << "device " << device << " ready " << std::hexfloat << ready
        << " duration " << duration << " after " << booked_ << " bookings";
    ++probes_;
    return expected;
  }

  void book(hw::DeviceId device, double start, double duration) {
    oracle_.book(device, start, duration);
    timeline_.book(device, start, duration);
    ++booked_;
  }

  /// A ready time: a random point, an existing slot boundary, or a
  /// boundary nudged by a few ulps.
  double pick_ready(hw::DeviceId device) {
    const auto& slots = oracle_.slots(device);
    const double horizon = slots.empty() ? 10.0 : slots.back().end + 5.0;
    if (slots.empty() || rng_.bernoulli(0.4)) {
      return rng_.bernoulli(0.3) ? std::floor(rng_.uniform(0.0, horizon))
                                 : rng_.uniform(0.0, horizon);
    }
    const auto& slot = slots[rng_.index(slots.size())];
    const double boundary = rng_.bernoulli(0.7) ? slot.end : slot.start;
    return rng_.bernoulli(0.7)
               ? boundary
               : ulps(boundary, static_cast<int>(rng_.uniform_int(-3, 3)));
  }

  /// A duration: zero, a grid value, a random value, or exactly (or a few
  /// ulps around) an existing gap between two consecutive slots. The ulps
  /// are the gap's own or those of the slot's start: at the start's scale
  /// `end + d <= start` and `start - end >= d` can disagree.
  double pick_duration(hw::DeviceId device) {
    const auto& slots = oracle_.slots(device);
    const double roll = rng_.uniform();
    if (roll < 0.08) {
      return 0.0;
    }
    if (slots.size() >= 2 && roll < 0.5) {
      const std::size_t j = 1 + rng_.index(slots.size() - 1);
      const double gap = std::max(slots[j].start - slots[j - 1].end, 0.0);
      const int steps = static_cast<int>(rng_.uniform_int(-4, 2));
      const double start_ulp =
          std::nextafter(slots[j].start, INFINITY) - slots[j].start;
      const double pick = rng_.uniform();
      if (pick < 0.3) {
        return gap;
      }
      return pick < 0.6 ? ulps(gap, steps)
                        : std::max(gap + steps * start_ulp, 0.0);
    }
    if (roll < 0.75) {
      return 0.25 * static_cast<double>(rng_.uniform_int(1, 12));
    }
    return rng_.uniform(1e-6, 3.0);
  }

  /// One scheduler-like step: probe a few candidate placements, then book
  /// the earliest fit of one of them, with the duration either as probed
  /// or re-derived as (start + duration) - start the way HEFT books it.
  void step() {
    const hw::DeviceId device =
        static_cast<hw::DeviceId>(rng_.index(devices_));
    for (int i = 0; i < 4; ++i) {
      probe(device, pick_ready(device), pick_duration(device));
    }
    const double ready = pick_ready(device);
    const double duration = pick_duration(device);
    const double start = probe(device, ready, duration);
    const double booked =
        rng_.bernoulli(0.5) ? duration : (start + duration) - start;
    book(device, start, booked);
  }

  std::size_t slots(hw::DeviceId device) const {
    return oracle_.slots(device).size();
  }
  std::size_t probes() const noexcept { return probes_; }

 private:
  std::size_t devices_;
  LinearTimeline oracle_;
  InsertionTimeline timeline_;
  util::Rng rng_;
  std::size_t booked_ = 0;
  std::size_t probes_ = 0;
};

TEST(InsertionTimeline, EmptyTimelineFitsAtReady) {
  InsertionTimeline timeline(2);
  EXPECT_EQ(timeline.earliest_fit(0, 3.5, 2.0), 3.5);
  EXPECT_EQ(timeline.earliest_fit(1, 0.0, 0.0), 0.0);
}

TEST(InsertionTimeline, FillsGapsAndTouchesSlots) {
  InsertionTimeline timeline(1);
  timeline.book(0, 0.0, 1.0);
  timeline.book(0, 3.0, 1.0);
  EXPECT_EQ(timeline.earliest_fit(0, 0.0, 2.0), 1.0);  // exact gap
  EXPECT_EQ(timeline.earliest_fit(0, 0.0, 2.5), 4.0);  // too small
  EXPECT_EQ(timeline.earliest_fit(0, 1.0, 0.0), 1.0);  // ready at an end
  timeline.book(0, 1.0, 2.0);                          // touches both
  EXPECT_EQ(timeline.earliest_fit(0, 0.0, 0.5), 4.0);
}

TEST(InsertionTimeline, MatchesOracleOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Harness harness(3, seed);
    for (int i = 0; i < 900; ++i) {
      harness.step();
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(InsertionTimeline, MatchesOracleOnLongTimelines) {
  // One device, well over 1 000 slots: probes cross dozens of blocks.
  Harness harness(1, 99);
  while (harness.slots(0) < 2500) {
    harness.step();
  }
  EXPECT_GT(harness.probes(), 12000u);
}

TEST(InsertionTimeline, MatchesOracleOnAppendOnlyDenseTimeline) {
  // Back-to-back slots (each starts where the previous ends) leave zero
  // gaps, so every block must be skipped — except where a probe's
  // duration is zero or a few ulps off a zero gap.
  Harness harness(1, 5);
  double end = 0.0;
  for (int i = 0; i < 1500; ++i) {
    const double duration = (i % 7 == 0) ? 0.0 : 0.125 * (1 + i % 5);
    harness.book(0, end, duration);
    end += duration;
  }
  for (int i = 0; i < 3000; ++i) {
    const double ready = end * static_cast<double>(i % 97) / 97.0;
    harness.probe(0, ready, (i % 3 == 0) ? 0.0 : 0.0625 * (i % 9));
    harness.probe(0, ulps(ready, (i % 5) - 2), ulps(0.125, (i % 5) - 2));
  }
}

}  // namespace
}  // namespace hetflow::sched
