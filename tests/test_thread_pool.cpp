#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
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

// Waits up to ten seconds for `flag`: a lost wake-up or a deadlock shows
// as a failed expectation instead of a hung test.
bool wait_for(const std::atomic<bool>& flag) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, SideStageLoopFinishesOnTwoThreads) {
  // The worker runs side(); the caller is held in main() until side()'s
  // loop is done, so nobody else can take that loop's queued ticket. The
  // loop must revoke it instead of waiting for it.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> visits(100);
  std::atomic<bool> loop_done{false};
  bool main_saw_loop = false;
  pool.run_beside(
      [&] {
        parallel_for(visits.size(),
                     [&](std::size_t i) { visits[i].fetch_add(1); });
        loop_done.store(true);
      },
      [&] { main_saw_loop = wait_for(loop_done); });
  EXPECT_TRUE(main_saw_loop);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, CallerHelpsSideStageLoopsOnceMainIsDone) {
  // Both indices of side()'s loop must run at once. main() returns only
  // once the one worker has taken side(), so only the caller — done with
  // main() — can take the second.
  ThreadPool pool(2);
  std::atomic<bool> side_started{false};
  std::atomic<int> running{0};
  std::atomic<bool> both{false};
  bool met = true;
  std::mutex mu;
  pool.run_beside(
      [&] {
        side_started.store(true);
        parallel_for(2, [&](std::size_t) {
          if (running.fetch_add(1) == 1) both.store(true);
          const bool ok = wait_for(both);
          std::lock_guard<std::mutex> lock(mu);
          met = met && ok;
        });
      },
      [&] { EXPECT_TRUE(wait_for(side_started)); });
  EXPECT_TRUE(met);
}

TEST(ThreadPool, SideStageExceptionIsRethrownAfterMainFinishes) {
  ThreadPool pool(4);
  std::atomic<bool> main_done{false};
  EXPECT_THROW(pool.run_beside([] { throw std::runtime_error("side"); },
                               [&] {
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(20));
                                 main_done.store(true);
                               }),
               std::runtime_error);
  EXPECT_TRUE(main_done.load());
}

TEST(ThreadPool, MainStageExceptionIsRethrownAfterSideFinishes) {
  ThreadPool pool(4);
  std::atomic<bool> side_done{false};
  EXPECT_THROW(pool.run_beside(
                   [&] {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(20));
                     side_done.store(true);
                   },
                   [] { throw std::logic_error("main"); }),
               std::logic_error);
  EXPECT_TRUE(side_done.load());
  // The pool survives and keeps working.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, SerialPoolRunsStagesInlineInOrder) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::string> order;
  pool.run_beside(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back("side");
      },
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back("main");
      });
  EXPECT_EQ(order, (std::vector<std::string>{"side", "main"}));
}

TEST(ThreadPool, StagesRunInlineInsideALoopBody) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> order(8);
  pool.parallel_for(order.size(), [&](std::size_t i) {
    const auto self = std::this_thread::get_id();
    pool.run_beside(
        [&] {
          EXPECT_EQ(std::this_thread::get_id(), self);
          order[i].push_back(0);
        },
        [&] {
          EXPECT_EQ(std::this_thread::get_id(), self);
          order[i].push_back(1);
        });
  });
  for (const auto& o : order) EXPECT_EQ(o, (std::vector<int>{0, 1}));
}

TEST(ThreadPool, EveryIndexRunsOnceWithLoopsOnBothStages) {
  // Many short loops from both stages at once: tickets get revoked and
  // taken by the helping caller all the time, and every index must still
  // run exactly once.
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  constexpr std::size_t kLoops = 300;
  std::vector<std::atomic<int>> side_visits(kLoops * 8);
  std::vector<std::atomic<int>> main_visits(kLoops * 8);
  const auto loops = [](std::vector<std::atomic<int>>& visits) {
    for (std::size_t l = 0; l < kLoops; ++l) {
      const std::size_t n = 2 + l % 7;
      parallel_for(n, [&](std::size_t i) { visits[l * 8 + i].fetch_add(1); });
    }
  };
  pool.run_beside([&] { loops(side_visits); }, [&] { loops(main_visits); });
  for (std::size_t l = 0; l < kLoops; ++l) {
    for (std::size_t i = 0; i < 8; ++i) {
      const int want = i < 2 + l % 7 ? 1 : 0;
      EXPECT_EQ(side_visits[l * 8 + i].load(), want) << l << "," << i;
      EXPECT_EQ(main_visits[l * 8 + i].load(), want) << l << "," << i;
    }
  }
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
