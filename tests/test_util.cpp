// Unit tests for the utility layer: RNG determinism, statistics, queues.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "util/mpmc_queue.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dgr {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(13), 13u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.range(5, 8));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 5u);
  EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SubstreamsAreIndependent) {
  Rng a = Rng::substream(5, 0);
  Rng b = Rng::substream(5, 1);
  EXPECT_NE(a.next(), b.next());
  // Same stream id reproduces.
  Rng c = Rng::substream(5, 0);
  Rng d = Rng::substream(5, 0);
  EXPECT_EQ(c.next(), d.next());
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesCombined) {
  OnlineStats a, b, all;
  Rng r(3);
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform01() * 100;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, PercentilesApproximate) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.percentile(50), 5000, 5000 * 0.05);
  EXPECT_NEAR(h.percentile(99), 9900, 9900 * 0.05);
  EXPECT_DOUBLE_EQ(h.max_value(), 10000);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.add(1.0);
  for (int i = 0; i < 100; ++i) b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GT(a.percentile(99), 500);
  EXPECT_LT(a.percentile(25), 2);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 4; ++i) q.push(i);
  std::vector<int> batch = {4, 5, 6, 7, 8, 9};
  q.push_all(batch);  // lands behind earlier pushes, in order
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.size(), 10u);
  for (int i = 0; i < 2; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  // Drain up to N in push order; appends, and never blocks when short.
  std::vector<int> out;
  EXPECT_EQ(q.pop_up_to(4, out), 4u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop_up_to(100, out), 4u);
  EXPECT_EQ(q.pop_up_to(100, out), 0u);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, CloseUnblocksConsumers) {
  MpmcQueue<int> q;
  std::thread consumer([&] {
    while (q.pop().has_value()) {
    }
  });
  q.push(1);
  q.push(2);
  q.close();
  consumer.join();
  SUCCEED();
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 2000;
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < 4; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 4; c < 8; ++c) threads[static_cast<std::size_t>(c)].join();
  EXPECT_EQ(consumed.load(), 4 * kPerProducer);
  const long long n = 4LL * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// A bucketed queue: values 0..99 file under bucket 0, 100..199 under 1, and
// so on (4 buckets).
std::size_t hundreds(const int& v) { return static_cast<std::size_t>(v / 100); }
using BucketedQueue = MpmcQueue<int, 4, &hundreds>;

TEST(MpmcQueue, BucketedPopsLowestBucketFirstFifoWithin) {
  BucketedQueue q;
  for (int v : {301, 200, 1, 302, 100, 2, 201, 3}) q.push(v);
  std::vector<int> batch = {310, 101, 4};
  q.push_all(batch);
  EXPECT_TRUE(batch.empty());
  std::vector<int> out;
  EXPECT_EQ(q.pop_up_to(4, out), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  // A push into a lower bucket mid-drain jumps the queue.
  q.push(5);
  EXPECT_EQ(*q.try_pop(), 5);
  out.clear();
  EXPECT_EQ(q.pop_up_to(100, out), 7u);
  EXPECT_EQ(out, (std::vector<int>{100, 101, 200, 201, 301, 302, 310}));
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, BucketedSizeAndHighWaterSpanAllBuckets) {
  BucketedQueue q;
  q.push(300);
  q.push(0);
  EXPECT_EQ(q.high_water(), 2u);
  std::vector<int> batch = {100, 200, 201};
  q.push_all(batch);  // depth observed once, after the whole batch
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.high_water(), 5u);
  std::vector<int> out;
  q.pop_up_to(2, out);
  EXPECT_EQ(out, (std::vector<int>{0, 100}));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(*q.pop(), 200);
  EXPECT_EQ(*q.pop(), 201);
  EXPECT_EQ(*q.pop(), 300);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.high_water(), 5u);
  q.push(1);
  EXPECT_EQ(q.high_water(), 5u);  // monotone
  batch.clear();
  q.push_all(batch);  // an empty batch is a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.high_water(), 5u);
}

TEST(MpmcQueue, BucketedWaitWakesOnAPushIntoAnyBucket) {
  for (int v : {7, 399}) {
    BucketedQueue q;
    std::vector<int> out;
    const auto t0 = std::chrono::steady_clock::now();
    std::thread producer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      q.push(v);
    });
    const std::size_t n = q.pop_up_to_wait(8, out, std::chrono::seconds(30));
    producer.join();
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(out, (std::vector<int>{v}));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  }
}

TEST(MpmcQueue, BucketedCloseWakesWaiters) {
  BucketedQueue q;
  std::vector<int> out;
  std::size_t waited = 99;
  bool popped = true;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread waiter([&] {
    waited = q.pop_up_to_wait(8, out, std::chrono::seconds(30));
  });
  std::thread popper([&] { popped = q.pop().has_value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  waiter.join();
  popper.join();
  EXPECT_EQ(waited, 0u);
  EXPECT_FALSE(popped);
  EXPECT_TRUE(q.closed());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(MpmcQueue, BareBucketsPopInTheQueuesOrder) {
  BucketedQueue::Buckets b;
  for (int v : {250, 10, 120, 11}) b.push(v);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.pop(), 10);
  EXPECT_EQ(b.pop(), 11);
  EXPECT_EQ(b.pop(), 120);
  b.push(5);  // below the bucket the scan had reached
  EXPECT_EQ(b.pop(), 5);
  b.push(399);
  b.clear();
  EXPECT_TRUE(b.empty());
  b.push(260);
  EXPECT_EQ(b.pop(), 260);
}

}  // namespace
}  // namespace dgr
