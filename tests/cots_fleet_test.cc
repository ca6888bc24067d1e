// CotsFleet tests: shard routing, single-shard equivalence with the plain
// engine, merged-view accuracy bounds versus ground truth, zero-loss
// conservation across racing Stop(), and a failpoint-perturbed drain
// stress. The fleet's contract is the engine's lifted one level: offers
// are counted in full on their home shards or refused in full, and the
// disjoint merge preserves the Space Saving guarantees globally.

#include "cots/cots_fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"
#include "support/invariants.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace cots {
namespace {

class CotsFleetTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Global().DisableAll(); }

  static CotsFleetOptions MakeOptions(size_t shards, size_t capacity) {
    CotsFleetOptions opt;
    opt.num_shards = shards;
    opt.engine.capacity = capacity;
    EXPECT_TRUE(opt.Validate().ok());
    return opt;
  }

  // Space Saving conservation law per shard: the sum of monitored counts
  // equals the count of everything the shard accepted.
  static uint64_t SumShardCounts(const CotsFleet& fleet) {
    uint64_t sum = 0;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      for (const Counter& c : fleet.shard(s).CountersDescending()) {
        sum += c.count;
      }
    }
    return sum;
  }
};

TEST_F(CotsFleetTest, OptionsValidate) {
  CotsFleetOptions opt;
  opt.engine.capacity = 8;
  EXPECT_TRUE(opt.Validate().ok());
  EXPECT_GE(opt.num_shards, 1u);  // derived from hardware threads
  EXPECT_EQ(opt.merge_capacity, 8u);

  CotsFleetOptions bad;
  bad.num_shards = 5000;
  bad.engine.capacity = 8;
  EXPECT_FALSE(bad.Validate().ok());

  CotsFleetOptions bad_engine;
  bad_engine.num_shards = 2;
  bad_engine.engine.capacity = 0;  // and no epsilon
  EXPECT_FALSE(bad_engine.Validate().ok());
}

TEST_F(CotsFleetTest, ShardRoutingIsDeterministicAndInRange) {
  CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/32));
  std::vector<uint64_t> hits(fleet.num_shards(), 0);
  for (ElementId e = 0; e < 10000; ++e) {
    const size_t s = fleet.ShardOf(e);
    ASSERT_LT(s, fleet.num_shards());
    EXPECT_EQ(s, fleet.ShardOf(e));  // stable
    ++hits[s];
  }
  // The mixed Lemire reduction spreads sequential keys roughly uniformly;
  // a collapsed shard means the router is not using the mixed bits.
  for (uint64_t h : hits) EXPECT_GT(h, 1000u);
}

// With one shard the fleet is the engine plus routing overhead: identical
// counts, errors, stream length, and lookups for the same input.
TEST_F(CotsFleetTest, SingleShardMatchesSingleEngine) {
  ZipfOptions zopt;
  zopt.alphabet_size = 500;
  zopt.alpha = 1.5;
  Stream s = MakeZipfStream(20000, zopt);

  CotsSpaceSavingOptions eopt;
  eopt.capacity = 64;
  ASSERT_TRUE(eopt.Validate().ok());
  CotsSpaceSaving engine(eopt);
  {
    auto handle = engine.RegisterThread();
    ASSERT_NE(handle, nullptr);
    ASSERT_TRUE(handle->OfferBatch(s.data(), s.size()));
  }
  engine.Stop();

  CotsFleet fleet(MakeOptions(/*shards=*/1, /*capacity=*/64));
  {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    ASSERT_TRUE(handle->OfferBatch(s.data(), s.size()));
  }
  fleet.Stop();

  EXPECT_EQ(fleet.stream_length(), engine.stream_length());
  EXPECT_EQ(fleet.num_counters(), engine.num_counters());
  EXPECT_EQ(fleet.MinFreq(), engine.MinFreq());
  for (const Counter& c : engine.CountersDescending()) {
    const auto mirrored = fleet.Lookup(c.key);
    ASSERT_TRUE(mirrored.has_value()) << "key " << c.key;
    EXPECT_EQ(mirrored->count, c.count) << "key " << c.key;
    EXPECT_EQ(mirrored->error, c.error) << "key " << c.key;
  }
}

// Multi-shard, multi-thread ingest; after Stop the merged global view must
// keep the Space Saving contract versus exact ground truth, with m the
// per-shard capacity (each key's error is its home shard's, and n_s <= N).
TEST_F(CotsFleetTest, MergedViewBoundsHoldVersusExactCounter) {
  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = 1.4;
  const uint64_t n = 60000;
  Stream s = MakeZipfStream(n, zopt);
  ExactCounter exact(s);

  CotsFleet fleet(MakeOptions(/*shards=*/4, /*capacity=*/128));
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      const uint64_t slice = n / kThreads;
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end = t == kThreads - 1 ? n : begin + slice;
      constexpr uint64_t kBatch = 512;
      for (uint64_t i = begin; i < end; i += kBatch) {
        const uint64_t len = std::min(kBatch, end - i);
        ASSERT_TRUE(handle->OfferBatch(s.data() + i, len));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  fleet.Stop();

  EXPECT_EQ(fleet.stream_length(), n);
  EXPECT_EQ(SumShardCounts(fleet), n);  // conservation across all shards

  CounterSet merged = fleet.GlobalView();
  ASSERT_GT(merged.num_counters(), 0u);
  EXPECT_TRUE(SpaceSavingGuaranteesHold(
      ReportOf(merged, fleet.shard(0).capacity()), exact));
  // Point lookups route to the home shard and obey the same bounds.
  for (const Counter& c : merged.counters()) {
    const auto direct = fleet.Lookup(c.key);
    ASSERT_TRUE(direct.has_value());
    EXPECT_GE(direct->count, exact.Count(c.key));
  }
}

TEST_F(CotsFleetTest, StopRefusesOffersWhole) {
  CotsFleet fleet(MakeOptions(/*shards=*/2, /*capacity=*/16));
  auto handle = fleet.RegisterThread();
  ASSERT_NE(handle, nullptr);
  const ElementId batch[4] = {1, 2, 3, 4};
  ASSERT_TRUE(handle->OfferBatch(batch, 4));
  fleet.Stop();
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
  EXPECT_FALSE(handle->Offer(7));
  EXPECT_FALSE(handle->OfferBatch(batch, 4));
  EXPECT_EQ(fleet.stream_length(), 4u);  // nothing from the refused calls
  fleet.Stop();  // idempotent
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
}

// Workers race Stop() with multi-shard batches: every batch is either
// counted in full across its shards or refused in full, so the frozen
// fleet's stream length equals exactly the per-thread accepted totals.
TEST_F(CotsFleetTest, StopWhileIngestingNeverHalfCountsBatches) {
  CotsFleet fleet(MakeOptions(/*shards=*/3, /*capacity=*/32));
  constexpr int kThreads = 3;
  constexpr uint64_t kBatch = 64;
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = fleet.RegisterThread();
      ASSERT_NE(handle, nullptr);
      Xoshiro256 rng(7919u * static_cast<uint64_t>(t + 1));
      ElementId batch[kBatch];
      uint64_t local = 0;
      for (int iter = 0; iter < 20000; ++iter) {
        for (uint64_t i = 0; i < kBatch; ++i) {
          batch[i] = 1 + rng.NextBounded(5000);
        }
        if (!handle->OfferBatch(batch, kBatch)) break;  // refused whole
        local += kBatch;
      }
      accepted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  while (fleet.stream_length() < 20 * kBatch) std::this_thread::yield();
  fleet.Stop();
  EXPECT_EQ(fleet.state(), EngineState::kStopped);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(fleet.stream_length(), accepted.load());
  EXPECT_EQ(SumShardCounts(fleet), accepted.load());
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    std::string why;
    EXPECT_TRUE(fleet.shard(s).CheckInvariantsQuiescent(&why))
        << "shard " << s << ": " << why;
  }
}

TEST_F(CotsFleetTest, ConcurrentStopCallersAllObserveFrozenFleet) {
  CotsFleet fleet(MakeOptions(/*shards=*/2, /*capacity=*/16));
  {
    auto handle = fleet.RegisterThread();
    ASSERT_NE(handle, nullptr);
    for (ElementId e = 0; e < 100; ++e) ASSERT_TRUE(handle->Offer(e));
  }
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] {
      fleet.Stop();
      // Every caller returns post-quiesce, whoever won the transition.
      EXPECT_EQ(fleet.state(), EngineState::kStopped);
      EXPECT_EQ(fleet.stream_length(), 100u);
    });
  }
  for (std::thread& t : stoppers) t.join();
}

// 100 short rounds racing ingest against Stop() with the fleet router and
// drain perturbed (plus the engine's own forced failure branches). Zero
// loss and no half-counted batch, every round: accepted == frozen stream
// length == sum of monitored counts.
TEST(CotsFleetFailpointStressTest, ZeroLossAcrossHundredPerturbedDrainRounds) {
  if (!COTS_FAILPOINTS_ENABLED) {
    GTEST_SKIP() << "build with -DCOTS_FAILPOINTS=ON to run injection";
  }

  constexpr int kRounds = 100;
  constexpr int kThreads = 2;
  constexpr uint64_t kBatch = 48;

  for (int round = 0; round < kRounds; ++round) {
    const uint64_t round_seed = 0x9e3779b9u * static_cast<uint64_t>(round) + 1;

    FailpointSpec yield;
    yield.action = FailpointSpec::Action::kYield;
    yield.num = 1;
    yield.den = 4;
    yield.seed = round_seed;
    Failpoints::Global().Enable("fleet.dispatch_shard", yield);
    Failpoints::Global().Enable("fleet.drain_shard", yield);
    Failpoints::Global().Enable("fleet.drain_wait", yield);
    Failpoints::Global().Enable("summary.dispatch", yield);

    FailpointSpec overflow;
    overflow.action = FailpointSpec::Action::kTrigger;
    overflow.num = 1;
    overflow.den = 4;
    overflow.seed = round_seed ^ 0xdeadbeef;
    Failpoints::Global().Enable("request_queue.force_overflow", overflow);

    FailpointSpec defer;
    defer.action = FailpointSpec::Action::kTrigger;
    defer.num = 1;
    defer.den = 2;
    defer.seed = round_seed ^ 0xc0ffee;
    Failpoints::Global().Enable("summary.force_overwrite_defer", defer);

    CotsFleetOptions opt;
    opt.num_shards = 2 + static_cast<size_t>(round % 2);
    opt.engine.capacity = 8;
    ASSERT_TRUE(opt.Validate().ok());
    CotsFleet fleet(opt);

    std::atomic<uint64_t> accepted{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = fleet.RegisterThread();
        ASSERT_NE(handle, nullptr);
        Xoshiro256 rng(round_seed * 31 + static_cast<uint64_t>(t));
        ElementId batch[kBatch];
        uint64_t local = 0;
        for (int iter = 0; iter < 4000; ++iter) {
          for (uint64_t i = 0; i < kBatch; ++i) {
            const bool hot = rng.NextBounded(10) < 6;
            batch[i] = hot ? 1 + rng.NextBounded(4)
                           : 1'000'000 + rng.NextBounded(600);
          }
          if (!handle->OfferBatch(batch, kBatch)) break;
          local += kBatch;
        }
        accepted.fetch_add(local, std::memory_order_relaxed);
      });
    }
    while (fleet.stream_length() < 8 * kBatch) std::this_thread::yield();
    fleet.Stop();
    for (std::thread& w : workers) w.join();

    ASSERT_EQ(fleet.stream_length(), accepted.load()) << "round " << round;
    uint64_t conserved = 0;
    for (size_t s = 0; s < fleet.num_shards(); ++s) {
      for (const Counter& c : fleet.shard(s).CountersDescending()) {
        conserved += c.count;
      }
    }
    ASSERT_EQ(conserved, accepted.load()) << "round " << round;

    Failpoints::Global().DisableAll();
  }
}

}  // namespace
}  // namespace cots
