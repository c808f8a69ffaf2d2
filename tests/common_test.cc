// Tests for the remaining common substrate: RNG, thread pool, timers, CSR.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/csr.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace secreta {
namespace {

std::vector<uint32_t> Values(const Csr& csr, size_t key) {
  return {csr[key].begin(), csr[key].end()};
}

TEST(CsrTest, KeepsEmissionOrderWithinAKey) {
  const std::vector<std::pair<size_t, uint32_t>> pairs = {
      {2, 9}, {0, 4}, {2, 1}, {2, 5}, {0, 3}, {3, 7}};
  Csr csr = Csr::Build(4, [&](auto emit) {
    for (const auto& [key, value] : pairs) emit(key, value);
  });
  ASSERT_EQ(csr.num_keys(), 4u);
  EXPECT_EQ(Values(csr, 0), (std::vector<uint32_t>{4, 3}));
  EXPECT_TRUE(csr[1].empty());  // a key with no values
  EXPECT_EQ(Values(csr, 2), (std::vector<uint32_t>{9, 1, 5}));
  EXPECT_EQ(Values(csr, 3), (std::vector<uint32_t>{7}));
}

TEST(CsrTest, EmptyBuilds) {
  EXPECT_EQ(Csr::Build(0, [](auto) {}).num_keys(), 0u);

  Csr no_pairs = Csr::Build(3, [](auto) {});
  ASSERT_EQ(no_pairs.num_keys(), 3u);
  for (size_t k = 0; k < 3; ++k) EXPECT_TRUE(no_pairs[k].empty());

  EXPECT_EQ(Csr().num_keys(), 0u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfSkewsTowardsHead) {
  Rng rng(7);
  size_t head = 0;
  const size_t kDraws = 5000;
  for (size_t i = 0; i < kDraws; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++head;
  }
  // With skew 1.2 the top-10 ranks dominate; uniform would give ~10%.
  EXPECT_GT(head, kDraws / 3);
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(7);
  size_t head = 0;
  const size_t kDraws = 5000;
  for (size_t i = 0; i < kDraws; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++head;
  }
  EXPECT_NEAR(static_cast<double>(head) / kDraws, 0.10, 0.03);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(3);
  auto sample = rng.Sample(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
  EXPECT_EQ(rng.Sample(5, 10).size(), 5u);  // m clamped to n
  EXPECT_TRUE(rng.Sample(0, 3).empty());
}

// Reference Sample: the partial Fisher-Yates shuffle over a fresh identity
// vector of all n indices.
std::vector<size_t> SampleByFullShuffle(Rng& rng, size_t n, size_t m) {
  m = std::min(m, n);
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < m; ++i) {
    size_t j = static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(i),
                                                  static_cast<int64_t>(n - 1)));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(m);
  return indices;
}

TEST(RngTest, SampleMatchesFullShuffle) {
  // Interleaved calls on one Rng with n growing and shrinking, so a shuffle
  // left half undone would show in a later call.
  Rng rng(91);
  Rng reference(91);
  Rng sizes(5);
  for (int call = 0; call < 2000; ++call) {
    size_t n = static_cast<size_t>(sizes.UniformInt(0, call % 3 == 0 ? 8 : 300));
    size_t m = static_cast<size_t>(sizes.UniformInt(0, 1 + n + n / 4));
    ASSERT_EQ(rng.Sample(n, m), SampleByFullShuffle(reference, n, m))
        << "call " << call << ": n " << n << ", m " << m;
  }
  // Edge sizes: nothing to draw, everything, more than everything.
  for (auto [n, m] : std::vector<std::pair<size_t, size_t>>{
           {0, 0}, {0, 5}, {1, 0}, {1, 1}, {1, 9}, {700, 0}, {700, 700},
           {700, 701}, {3, 2}, {5000, 192}, {10, 10}}) {
    ASSERT_EQ(rng.Sample(n, m), SampleByFullShuffle(reference, n, m))
        << "n " << n << ", m " << m;
  }
  // Both generators made the same draws.
  EXPECT_EQ(rng.UniformInt(0, 1 << 30), reference.UniformInt(0, 1 << 30));
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ReportsQueuedAndActiveCounts) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
  std::mutex gate;
  gate.lock();
  pool.Submit([&gate] { std::lock_guard<std::mutex> hold(gate); });
  while (pool.active() == 0) std::this_thread::yield();  // blocker dispatched
  pool.Submit([] {});
  pool.Submit([] {});
  EXPECT_EQ(pool.queued(), 2u);
  EXPECT_EQ(pool.active(), 1u);
  gate.unlock();
  pool.Wait();
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  double t1 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(PhaseTimerTest, AccumulatesNamedPhases) {
  PhaseTimer timer;
  timer.Begin("a");
  timer.Begin("b");  // closes a
  timer.Add("a", 1.5);
  timer.End();
  ASSERT_EQ(timer.phases().size(), 2u);
  EXPECT_EQ(timer.phases()[0].first, "a");
  EXPECT_GE(timer.phases()[0].second, 1.5);
  EXPECT_GE(timer.TotalSeconds(), 1.5);
  timer.End();  // idempotent
}

}  // namespace
}  // namespace secreta
