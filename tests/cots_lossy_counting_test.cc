#include "cots/cots_lossy_counting.h"

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/lossy_counting.h"
#include "stream/exact_counter.h"
#include "stream/zipf_generator.h"
#include "util/random.h"

namespace cots {
namespace {

TEST(CotsLossyCountingOptionsTest, Validate) {
  CotsLossyCountingOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.epsilon = 0.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = CotsLossyCountingOptions{};
  opt.max_threads = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(CotsLossyCountingTest, CountsWithoutEviction) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.001;  // width 1000: no boundary in this test
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  ASSERT_NE(handle, nullptr);
  for (ElementId e : Stream{1, 2, 2, 3, 3, 3}) handle->Offer(e);
  EXPECT_EQ(engine.stream_length(), 6u);
  EXPECT_EQ(handle->Lookup(3)->count, 3u);
  EXPECT_EQ(handle->Lookup(1)->count, 1u);
  EXPECT_EQ(engine.rounds_completed(), 0u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsLossyCountingTest, RoundBoundaryEvicts) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.25;  // width 4
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  // Round 1: {1,1,1,2} — at the boundary, 2 (estimate 1 <= 1) is evicted.
  for (ElementId e : Stream{1, 1, 1, 2}) handle->Offer(e);
  EXPECT_EQ(engine.rounds_completed(), 1u);
  EXPECT_TRUE(handle->Lookup(1).has_value());
  EXPECT_FALSE(handle->Lookup(2).has_value());
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

TEST(CotsLossyCountingTest, ReadmissionCarriesDelta) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.25;  // width 4
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  for (ElementId e : Stream{1, 1, 1, 2}) handle->Offer(e);  // 2 evicted
  for (ElementId e : Stream{2, 2, 1}) handle->Offer(e);     // 2 re-enters
  ASSERT_TRUE(handle->Lookup(2).has_value());
  // Estimate = 2 observed + delta 1; error = 1. True count is 3.
  EXPECT_EQ(handle->Lookup(2)->count, 3u);
  EXPECT_EQ(handle->Lookup(2)->error, 1u);
}

class CotsLossyCountingStressTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CotsLossyCountingStressTest, EpsilonGuaranteeUnderConcurrency) {
  const int threads = std::get<0>(GetParam());
  const double alpha = std::get<1>(GetParam());

  CotsLossyCountingOptions opt;
  opt.epsilon = 0.005;  // width 200: many rounds over 30k elements
  CotsLossyCounting engine(opt);

  ZipfOptions zopt;
  zopt.alphabet_size = 2000;
  zopt.alpha = alpha;
  zopt.seed = 77;
  const uint64_t n = 30000;
  Stream s = MakeZipfStream(n, zopt);

  std::vector<std::thread> workers;
  const uint64_t slice = n / static_cast<uint64_t>(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      const uint64_t begin = slice * static_cast<uint64_t>(t);
      const uint64_t end = t == threads - 1 ? n : begin + slice;
      for (uint64_t i = begin; i < end; ++i) handle->Offer(s[i]);
    });
  }
  for (std::thread& w : workers) w.join();

  std::string why;
  ASSERT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
  EXPECT_EQ(engine.stream_length(), n);
  EXPECT_GE(engine.rounds_completed(), n / 200 - 1);

  ExactCounter exact(s);
  const uint64_t eps_n = static_cast<uint64_t>(0.005 * static_cast<double>(n));
  for (const Counter& c : engine.CountersDescending()) {
    const uint64_t truth = exact.Count(c.key);
    // Over-estimate by at most epsilon * N (delta bound).
    EXPECT_LE(truth, c.count) << "key " << c.key;
    EXPECT_LE(c.count, truth + eps_n + 1) << "key " << c.key;
  }
  // Every element with true frequency > epsilon*N must be monitored.
  for (const auto& [key, truth] : exact.counts()) {
    if (truth > eps_n) {
      EXPECT_TRUE(engine.Lookup(key).has_value())
          << "key " << key << " freq " << truth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByAlpha, CotsLossyCountingStressTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1.1, 2.0, 3.0)));

TEST(CotsLossyCountingTest, SpaceStaysBoundedUnderChurn) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.01;  // width 100
  CotsLossyCounting engine(opt);
  auto handle = engine.RegisterThread();
  // Adversarial churn: round-robin over a large alphabet. Lossy Counting
  // space is O((1/eps) log(eps N)) ~ 100 * ln(1000) ~ 690.
  for (ElementId e : MakeRoundRobinStream(100000, 5000)) handle->Offer(e);
  EXPECT_LE(engine.num_counters(), 1200u);
  EXPECT_TRUE(engine.CheckInvariantsQuiescent());
}

// Uniform churn: round-boundary eviction retires summary nodes continuously
// while three threads re-admit them. Estimates must stay within the Lossy
// Counting bound throughout.
TEST(CotsLossyCountingTest, ConcurrentChurnRecyclesNodesWithinBounds) {
  CotsLossyCountingOptions opt;
  opt.epsilon = 0.01;  // width 100: eviction sweeps every 100 offers
  ASSERT_TRUE(opt.Validate().ok());
  CotsLossyCounting engine(opt);

  constexpr int kThreads = 3;
  constexpr uint64_t kOps = 30000;
  std::vector<std::unordered_map<ElementId, uint64_t>> truths(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto handle = engine.RegisterThread();
      ASSERT_NE(handle, nullptr);
      Xoshiro256 rng(77 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kOps; ++i) {
        const ElementId e = 1 + rng.NextBounded(2000);
        handle->Offer(e);
        ++truths[static_cast<size_t>(t)][e];
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::unordered_map<ElementId, uint64_t> truth;
  for (const auto& partial : truths) {
    for (const auto& [key, count] : partial) truth[key] += count;
  }
  const uint64_t n = engine.stream_length();
  EXPECT_EQ(n, kThreads * kOps);
  EXPECT_GT(engine.rounds_completed(), 0u);
  // Lossy Counting: estimate never under-counts by more than error, and
  // error stays within delta = floor(N / width).
  const uint64_t delta = n / engine.bucket_width();
  for (const Counter& c : engine.CountersDescending()) {
    const uint64_t exact = truth.count(c.key) != 0 ? truth[c.key] : 0;
    EXPECT_LE(exact, c.count + delta) << "key " << c.key;
    EXPECT_LE(c.count, exact + c.error) << "key " << c.key;
  }
  std::string why;
  EXPECT_TRUE(engine.CheckInvariantsQuiescent(&why)) << why;
}

TEST(CotsLossyCountingTest, MatchesSequentialRecall) {
  // Parallel and sequential Lossy Counting agree on which heavy hitters
  // survive (estimates may differ by interleaving).
  CotsLossyCountingOptions copt;
  copt.epsilon = 0.01;
  CotsLossyCounting parallel(copt);
  LossyCountingOptions sopt;
  sopt.epsilon = 0.01;
  LossyCounting sequential(sopt);

  ZipfOptions zopt;
  zopt.alphabet_size = 1000;
  zopt.alpha = 2.0;
  const uint64_t n = 20000;
  Stream s = MakeZipfStream(n, zopt);
  auto handle = parallel.RegisterThread();
  for (ElementId e : s) {
    handle->Offer(e);
    sequential.Offer(e);
  }
  ExactCounter exact(s);
  const uint64_t eps_n = n / 100;
  for (const auto& [key, truth] : exact.counts()) {
    if (truth > eps_n) {
      EXPECT_TRUE(parallel.Lookup(key).has_value());
      EXPECT_TRUE(sequential.Lookup(key).has_value());
    }
  }
}

}  // namespace
}  // namespace cots
