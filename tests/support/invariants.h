// Copyright (c) the CoTS reproduction authors.
//
// The one checker for the Space Saving guarantees every engine must keep,
// against exact ground truth over the whole offered stream:
//
//   1. conservation:  counted + shed == offered
//   2. two-sided:     est - err <= true <= est  (+ shed, see below)
//   3. error bound:   err <= N/m + shed  (N = counted, m = capacity)
//   4. coverage:      no unmonitored key above min_freq, and
//                     min_freq <= N/m + shed, so every key above
//                     N/m + shed is monitored
//
// Shed occurrences (admission control, DESIGN.md §13) are anonymous: any
// key's true count may include up to `shed` of them that no counter saw,
// hence the `+ shed` on the upper side of (2). With shed == 0 every check
// is the textbook Space Saving statement.
//
// Usage:
//   ExactCounter truth(stream);
//   EXPECT_TRUE(SpaceSavingGuaranteesHold(ReportOf(engine), truth));

#ifndef COTS_TESTS_SUPPORT_INVARIANTS_H_
#define COTS_TESTS_SUPPORT_INVARIANTS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/counter.h"
#include "core/published_view.h"
#include "core/summary_merge.h"
#include "cots/cots_space_saving.h"
#include "stream/exact_counter.h"

namespace cots {

/// What a summary reports, as the checker consumes it.
struct ReportedSummary {
  /// Monitored counters (a truncated view passes what it kept).
  std::vector<Counter> counters;
  /// Bound on the true count of any key absent from `counters`.
  uint64_t min_freq = 0;
  /// m: counters the summary may hold (per shard for a fleet).
  size_t capacity = 0;
  /// N: occurrences counted into the summary.
  uint64_t stream_length = 0;
  /// Occurrences shed instead of counted.
  uint64_t shed = 0;
  /// `counters` is the whole summary, so their counts must sum to N.
  /// False for truncated views such as a fleet's merged GlobalView.
  bool all_counters = true;
};

/// The engine's own report; call at quiescence (after the workers join or
/// Stop()).
inline ReportedSummary ReportOf(const CotsSpaceSaving& engine) {
  return {engine.CountersDescending(), engine.MinFreq(), engine.capacity(),
          engine.stream_length(), engine.shed_weight()};
}

/// A merged or published view; `capacity` is the per-summary m its
/// counters came from. Views may be truncated, so the counter sum is not
/// checked.
inline ReportedSummary ReportOf(const CounterSet& view, size_t capacity) {
  return {view.counters(),      view.min_freq(),    capacity,
          view.stream_length(), view.shed_weight(), /*all_counters=*/false};
}

/// A published query view, read like a merged one.
inline ReportedSummary ReportOf(const PublishedView& view, size_t capacity) {
  return {view.CountersDescending(), view.min_freq(), capacity,
          view.stream_length(), view.shed_weight(), /*all_counters=*/false};
}

/// Checks guarantees (1)-(4) above; the failure message names every
/// violated check (the first few keys of each).
inline ::testing::AssertionResult SpaceSavingGuaranteesHold(
    const ReportedSummary& s, const ExactCounter& truth) {
  constexpr int kMaxReported = 8;
  int violations = 0;
  ::testing::Message why;
  auto fail = [&](const auto&... parts) {
    if (violations++ < kMaxReported) {
      why << "\n  ";
      (why << ... << parts);
    }
  };

  const uint64_t n = s.stream_length;
  if (n + s.shed != truth.stream_length()) {
    fail("conservation: counted ", n, " + shed ", s.shed,
         " != offered ", truth.stream_length());
  }
  if (s.capacity == 0) return ::testing::AssertionFailure() << "capacity 0";
  const uint64_t err_bound = n / s.capacity + s.shed;

  uint64_t sum = 0;
  std::unordered_set<ElementId> monitored;
  for (const Counter& c : s.counters) {
    sum += c.count;
    monitored.insert(c.key);
    const uint64_t t = truth.Count(c.key);
    if (c.count > t + c.error) {
      fail("key ", c.key, ": est ", c.count, " - err ", c.error,
           " > true ", t);
    }
    if (t > c.count + s.shed) {
      fail("key ", c.key, ": true ", t, " > est ", c.count, " + shed ",
           s.shed);
    }
    if (c.error > err_bound) {
      fail("key ", c.key, ": err ", c.error, " > N/m + shed = ", err_bound);
    }
  }
  if (s.all_counters && sum != n) {
    fail("conservation: counters sum to ", sum, " != counted ", n);
  }
  if (s.min_freq > err_bound) {
    fail("min_freq ", s.min_freq, " > N/m + shed = ", err_bound);
  }
  for (const auto& [key, t] : truth.counts()) {
    if (t > s.min_freq && monitored.count(key) == 0) {
      fail("unmonitored key ", key, ": true ", t, " > min_freq ",
           s.min_freq);
    }
  }

  if (violations == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << violations << " guarantee violation(s):" << why;
}

}  // namespace cots

#endif  // COTS_TESTS_SUPPORT_INVARIANTS_H_
