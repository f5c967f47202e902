#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  pool.parallel_for(n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SerialPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   if (i == 437) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a throwing loop and keeps working.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, EveryBodyThrowingStillReportsOne) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64, [&](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST(ThreadPool, NestedCallsRunSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  const std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<int>> visits(outer * inner);
  parallel_for(outer, [&](std::size_t i) {
    // Nested call: must execute inline on this worker, not re-enter the
    // pool (which could deadlock with all workers blocked on children).
    parallel_for(inner, [&](std::size_t j) {
      visits[i * inner + j].fetch_add(1);
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(8);
  ThreadPool::ScopedUse use(pool);
  // std::string is not trivially default-meaningful, proving slots don't
  // rely on default construction.
  const auto out = parallel_map(
      200, [](std::size_t i) { return "v" + std::to_string(i * i); });
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], "v" + std::to_string(i * i));
  }
}

TEST(ThreadPool, ScopedUseRoutesFreeFunctionsAndRestores) {
  ThreadPool a(2), b(3);
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
  {
    ThreadPool::ScopedUse use_a(a);
    EXPECT_EQ(&ThreadPool::current(), &a);
    {
      ThreadPool::ScopedUse use_b(b);
      EXPECT_EQ(&ThreadPool::current(), &b);
    }
    EXPECT_EQ(&ThreadPool::current(), &a);
  }
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
}

TEST(ThreadPool, LargeOversubscribedSum) {
  // More threads than cores and more tasks than chunks: the claimed
  // index ranges must still tile [0, n) exactly.
  ThreadPool pool(16);
  const std::size_t n = 100000;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(n, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

// NF_THREADS decoding only — no pool is ever built at the decoded size.
TEST(ThreadPool, NfThreadsIsValidatedAndCapped) {
  bool clamped = true;
  EXPECT_EQ(threads_from_env("8", &clamped), 8u);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(threads_from_env("256", &clamped), kMaxThreads);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(threads_from_env("257", &clamped), kMaxThreads);
  EXPECT_TRUE(clamped);
  EXPECT_EQ(threads_from_env("99999999999999999999999", &clamped),
            kMaxThreads);
  EXPECT_TRUE(clamped);
  for (const char* bad : {"", "abc", "0", "-3", "4x"}) {
    EXPECT_FALSE(threads_from_env(bad, &clamped)) << bad;
    EXPECT_FALSE(clamped) << bad;
  }
  EXPECT_FALSE(threads_from_env(nullptr, &clamped));
}

}  // namespace
}  // namespace nemfpga
