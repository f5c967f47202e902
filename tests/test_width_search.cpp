// The Wmin search rule and its probe scheduler (route/width_search.hpp),
// driven by stub probes instead of the router: a synthetic routability
// oracle answers each width after a seeded random delay, so completion
// orders vary from run to run while the rule's verdict must not. The
// reference is a transcription of the round-synchronous search loop the
// scheduler replaced, evaluated lazily.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "route/width_search.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

using Oracle = std::function<bool(std::size_t)>;

/// The seed-1 pdc placement's routability (EXPERIMENTS.md, "Routability
/// is not monotone in W"): routes at 63-64, 72 and >= 78, fails elsewhere.
bool pdc_routes(std::size_t w) {
  return w == 63 || w == 64 || w == 72 || w >= 78;
}

/// frisc's: the grow probe at 64 fails, Wmin is 78.
bool frisc_routes(std::size_t w) { return w >= 78; }

struct Reference {
  bool feasible = true;
  std::size_t w_min = 0;
  std::size_t lo = 0;
  std::vector<std::size_t> used;
};

/// The round-synchronous search, transcribed: grow pairs {w, 2w} under
/// w_cap, then k-ary shrink rounds of 4, each round read up to its first
/// routable width.
Reference reference_search(std::size_t w_hint, std::size_t w_cap,
                           const Oracle& routes) {
  constexpr std::size_t kFanout = 4;
  Reference ref;
  auto probe = [&](const std::vector<std::size_t>& ws) {
    std::vector<bool> ok(ws.size(), false);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ref.used.push_back(ws[i]);
      ok[i] = routes(ws[i]);
      if (ok[i]) break;
    }
    return ok;
  };
  std::size_t lo = 2;
  std::size_t hi = 0;
  for (std::size_t w = std::max<std::size_t>(4, w_hint); hi == 0;) {
    std::vector<std::size_t> ws;
    for (std::size_t j = 0; j < 2 && (ws.empty() || w <= w_cap);
         ++j, w *= 2) {
      ws.push_back(w);
    }
    const auto ok = probe(ws);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ok[i]) {
        hi = ws[i];
        break;
      }
      lo = ws[i] + 1;
    }
    if (hi == 0 && w > w_cap) {
      ref.feasible = false;
      ref.lo = lo;
      return ref;
    }
  }
  while (lo < hi) {
    const std::size_t span = hi - lo;
    std::vector<std::size_t> ws;
    if (span <= kFanout) {
      for (std::size_t w = lo; w < hi; ++w) ws.push_back(w);
    } else {
      for (std::size_t j = 0; j < kFanout; ++j) {
        ws.push_back(lo + span * (j + 1) / (kFanout + 1));
      }
    }
    const auto ok = probe(ws);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ok[i]) {
        hi = ws[i];
        break;
      }
      lo = ws[i] + 1;
    }
  }
  ref.w_min = hi;
  ref.lo = lo;
  return ref;
}

/// Stub probe: answers `routes(w)` after a random delay of up to 2 ms,
/// polling its stop token every 100 us. One call in four ignores the
/// token and answers anyway, as a probe does when a stop lands after its
/// last PathFinder iteration began. Every call is logged.
class StubProbe {
 public:
  StubProbe(Oracle routes, std::uint64_t seed)
      : routes_(std::move(routes)), rng_(seed) {}

  WidthVerdict operator()(std::size_t w, const std::atomic<bool>& stop) {
    std::uint64_t steps, stubborn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.push_back(w);
      steps = rng_.uniform_int(21);
      stubborn = rng_.uniform_int(4) == 0;
    }
    for (std::uint64_t i = 0; i < steps; ++i) {
      if (!stubborn && stop.load()) return WidthVerdict::kUnknown;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return routes_(w) ? WidthVerdict::kRoutes : WidthVerdict::kFails;
  }

  std::vector<std::size_t> calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  Oracle routes_;
  std::mutex mu_;
  Rng rng_;
  std::vector<std::size_t> calls_;
};

WidthSearchOutcome run_stub(std::size_t w_hint, std::size_t w_cap,
                            StubProbe& stub) {
  return run_width_search(
      w_hint, w_cap,
      [&](std::size_t w, const std::atomic<bool>& stop) {
        return stub(w, stop);
      });
}

void expect_same(const WidthSearchOutcome& got, const Reference& ref) {
  EXPECT_EQ(got.feasible, ref.feasible);
  EXPECT_EQ(got.w_min, ref.w_min);
  EXPECT_EQ(got.lo, ref.lo);
  EXPECT_EQ(got.used, ref.used);
}

/// A seeded random non-monotone oracle: routes at and above `top`,
/// and at a sprinkling of narrower widths.
Oracle random_oracle(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t top = 5 + rng.uniform_int(200);
  std::vector<bool> table(top, false);
  for (std::size_t w = top / 3; w < top; ++w) {
    table[w] = rng.uniform_int(5) == 0;
  }
  return [top, table](std::size_t w) { return w >= top || table[w]; };
}

TEST(WidthSearch, StepRuleMatchesTheRoundLoop) {
  // The pure rule, stepped with a complete oracle, against the
  // transcription, over random non-monotone oracles, hints and caps.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed ^ 0xabcdef);
    const Oracle routes = random_oracle(seed);
    const std::size_t hint = 1 + rng.uniform_int(150);
    const std::size_t cap = 4 + rng.uniform_int(400);
    WidthSearch s(hint, cap);
    std::vector<std::size_t> used;
    while (s.advance(
        [&](std::size_t w) {
          return routes(w) ? WidthVerdict::kRoutes : WidthVerdict::kFails;
        },
        &used)) {
    }
    ASSERT_TRUE(s.done());
    const Reference ref = reference_search(hint, cap, routes);
    EXPECT_EQ(s.feasible(), ref.feasible) << "seed " << seed;
    EXPECT_EQ(s.hi(), ref.w_min) << "seed " << seed;
    EXPECT_EQ(used, ref.used) << "seed " << seed;
  }
}

TEST(WidthSearch, AdvanceWaitsForTheRoundPrefix) {
  WidthSearch s(64, 1024);
  ASSERT_EQ(s.round(), (std::vector<std::size_t>{64, 128}));
  // 128 known to route, 64 not yet known: the round cannot be consumed.
  EXPECT_FALSE(s.advance([](std::size_t w) {
    return w == 128 ? WidthVerdict::kRoutes : WidthVerdict::kUnknown;
  }));
  EXPECT_EQ(s.round(), (std::vector<std::size_t>{64, 128}));
  // 64 routes: 128 is never looked at, so it may stay unknown.
  EXPECT_TRUE(s.advance([](std::size_t w) {
    return w == 64 ? WidthVerdict::kRoutes : WidthVerdict::kUnknown;
  }));
  EXPECT_FALSE(s.growing());
  EXPECT_EQ(s.round(), (std::vector<std::size_t>{14, 26, 39, 51}));
}

TEST(WidthSearch, SchedulerMatchesSequentialRuleInAnyCompletionOrder) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      for (const Oracle& routes :
           {Oracle(pdc_routes), Oracle(frisc_routes), random_oracle(seed)}) {
        for (std::size_t hint : {32u, 64u}) {
          StubProbe stub(routes, seed * 131 + threads);
          const WidthSearchOutcome got = run_stub(hint, 1024, stub);
          expect_same(got, reference_search(hint, 1024, routes));
          if (threads == 1) {
            // One worker runs exactly the lazy order: nothing but the
            // widths the rule consumes, in the order it consumes them.
            EXPECT_EQ(stub.calls(), got.used);
          }
        }
      }
    }
  }
}

TEST(WidthSearch, PdcSearchLandsOn63) {
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  StubProbe stub(pdc_routes, 7);
  const WidthSearchOutcome got = run_stub(64, 1024, stub);
  EXPECT_EQ(got.w_min, 63u);
  EXPECT_EQ(got.used, (std::vector<std::size_t>{64, 14, 26, 39, 51, 54, 56,
                                                59, 61, 62, 63}));
}

TEST(WidthSearch, ReportsInfeasibleAtTheCap) {
  const Oracle never = [](std::size_t w) { return w >= 5000; };
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    for (std::size_t cap : {6u, 100u, 1024u}) {
      StubProbe stub(never, cap + threads);
      const WidthSearchOutcome got = run_stub(4, cap, stub);
      EXPECT_FALSE(got.feasible);
      EXPECT_EQ(got.w_min, 0u);
      expect_same(got, reference_search(4, cap, never));
    }
  }
}

TEST(WidthSearch, ProbeThatThrowsStopsTheRestAndRethrows) {
  // 39 is in pdc's first shrink round; with spare workers the probes
  // around it are running or speculating when it throws, and must be
  // stopped for the call to return.
  for (std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    StubProbe stub(pdc_routes, threads);
    const WidthProbe probe = [&](std::size_t w,
                                 const std::atomic<bool>& stop) {
      if (w == 39) throw std::runtime_error("probe at 39 failed");
      return stub(w, stop);
    };
    try {
      run_width_search(64, 1024, probe);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "probe at 39 failed");
    }
  }
}

TEST(WidthSearch, NestedInsideParallelForRunsTheLazyOrder) {
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  const std::vector<Oracle> oracles = {pdc_routes, frisc_routes,
                                       random_oracle(3), random_oracle(9)};
  std::vector<WidthSearchOutcome> got(oracles.size());
  std::vector<std::vector<std::size_t>> calls(oracles.size());
  parallel_for(oracles.size(), [&](std::size_t i) {
    StubProbe stub(oracles[i], i + 1);
    got[i] = run_stub(48, 1024, stub);
    calls[i] = stub.calls();
  });
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    expect_same(got[i], reference_search(48, 1024, oracles[i]));
    EXPECT_EQ(calls[i], got[i].used);
  }
}

}  // namespace
}  // namespace nemfpga
