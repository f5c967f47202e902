// Differential property for the incremental STA behind the timing-driven
// router: over randomized rip-up/reroute sequences, the production
// epoch-stamped levelized hook (make_incremental_sta) must agree with the
// naive full-recompute oracle (verify::make_reference_sta) on the
// critical path, the worst slack and *every* per-connection criticality
// to 1e-12 relative — and timing-driven routing itself must stay
// bit-identical at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/rr_graph.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"
#include "timing/variant.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"
#include "verify/oracles.hpp"
#include "verify/prop.hpp"

namespace nemfpga::verify {
namespace {

constexpr double kTol = 1e-12;

/// Compare every query the router makes between the two hooks.
void require_hooks_agree(const RouterTimingHook& fast,
                         const RouterTimingHook& ref, const Placement& pl,
                         std::size_t round) {
  const std::string at = " (round " + std::to_string(round) + ")";
  prop_require_close(fast.critical_path(), ref.critical_path(), kTol,
                     "critical_path" + at);
  prop_require_close(fast.worst_slack(), ref.worst_slack(), kTol,
                     "worst_slack" + at);
  for (std::size_t n = 0; n < pl.nets.size(); ++n) {
    for (std::size_t j = 0; j < pl.nets[n].sinks.size(); ++j) {
      prop_require_close(fast.criticality(n, j), ref.criticality(n, j),
                         kTol,
                         "criticality(net " + std::to_string(n) + ", slot " +
                             std::to_string(j) + ")" + at);
    }
  }
}

// Randomized rip-up sequences: two legal routings of the same design give
// every net an A-tree and a B-tree; each round toggles a random subset of
// nets between them (that is exactly what a PathFinder iteration's rip-up
// set looks like to the hook) and updates both hooks with the same dirty
// list — duplicates included sometimes, as route_all can deliver after a
// conflict replay. The incremental result must match the full recompute
// after every round, including the first (all-nets) update.
TEST(PropStaIncremental, IncrementalMatchesFullRecompute) {
  const PropConfig cfg = PropConfig::from_env(40);
  const PropResult res = check_seeds("sta_incremental", cfg, [](Rng& rng) {
    DesignCase c = gen_design_case(rng);
    c.route.timing_driven = false;  // the two base routings stay untimed
    const BuiltDesign d = build_design(c);
    const RrGraph g(d.arch, d.nx, d.ny);

    const RoutingResult ra = route_all(g, d.pl, c.route);
    RouteOptions alt = c.route;
    alt.astar_factor = 1.0;  // a different, equally legal routing
    alt.bb_margin += 2;
    const RoutingResult rb = route_all(g, d.pl, alt);
    if (!ra.success || !rb.success) return;  // unroutable case: skip

    const ElectricalView view = make_view(d.arch, FpgaVariant::kCmosBaseline);
    const double cexp = 1.0 + 0.5 * rng.uniform_int(5);
    const double mcrit = rng.chance(0.5) ? 0.99 : 0.999;
    const auto fast = make_incremental_sta(d.nl, d.pk, d.pl, g, view, cexp,
                                           mcrit);
    const auto ref = make_reference_sta(d.nl, d.pk, d.pl, g, view, cexp,
                                        mcrit);

    std::vector<RouteTree> trees = ra.trees;
    std::vector<char> uses_b(trees.size(), 0);
    std::vector<std::size_t> dirty;

    // Iteration 1: placement-seeded criticalities, no routed trees yet.
    fast->update(g, trees, dirty, 1);
    ref->update(g, trees, dirty, 1);
    for (std::size_t n = 0; n < d.pl.nets.size(); ++n) {
      for (std::size_t j = 0; j < d.pl.nets[n].sinks.size(); ++j) {
        prop_require_close(fast->criticality(n, j), ref->criticality(n, j),
                           kTol, "seed criticality(net " +
                                     std::to_string(n) + ", slot " +
                                     std::to_string(j) + ")");
      }
    }

    const std::size_t rounds = 3 + rng.uniform_int(4);
    for (std::size_t round = 0; round < rounds; ++round) {
      dirty.clear();
      if (round > 0) {  // the first real update sees an empty rip-up set
        const std::size_t flips = 1 + rng.uniform_int(trees.size());
        for (std::size_t k = 0; k < flips; ++k) {
          const std::size_t n = rng.uniform_int(trees.size());
          uses_b[n] ^= 1;
          trees[n] = uses_b[n] ? rb.trees[n] : ra.trees[n];
          dirty.push_back(n);
          if (rng.chance(0.15)) dirty.push_back(n);  // duplicate delivery
        }
      }
      fast->update(g, trees, dirty, 2 + round);
      ref->update(g, trees, dirty, 2 + round);
      require_hooks_agree(*fast, *ref, d.pl, round);
    }
  });
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 40u);
}

// Timing-driven routing at 1, 2 and 8 threads must produce bit-identical
// trees, iteration counts, critical path and STA work counters — the
// timing hook is updated on the serial orchestration path and queried
// read-only from workers, so nothing may depend on the thread count.
TEST(PropStaIncremental, TimingDrivenRoutingIsThreadCountInvariant) {
  const PropConfig cfg = PropConfig::from_env(30);
  ThreadPool one(1), two(2), eight(8);
  const PropResult res = check(
      "sta_threads", cfg, gen_design_case,
      [&](const DesignCase& c) {
        DesignCase pc = c;
        pc.route.timing_driven = true;
        pc.route.net_parallel = true;  // always exercise the scheduler
        const BuiltDesign d = build_design(pc);
        const RrGraph g(d.arch, d.nx, d.ny);
        const ElectricalView view =
            make_view(d.arch, FpgaVariant::kCmosBaseline);
        auto run = [&](ThreadPool& pool) {
          ThreadPool::ScopedUse use(pool);
          const auto hook = make_incremental_sta(d.nl, d.pk, d.pl, g, view,
                                                 pc.route.criticality_exp,
                                                 pc.route.max_criticality);
          RouteOptions ropt = pc.route;
          ropt.timing_hook = hook.get();
          return route_all(g, d.pl, ropt);
        };
        const RoutingResult r1 = run(one);
        const RoutingResult r2 = run(two);
        const RoutingResult r8 = run(eight);
        const std::string d2 = diff_routing(r2, r1);
        prop_require(d2.empty(), "2 threads vs 1: " + d2);
        const std::string d8 = diff_routing(r8, r1);
        prop_require(d8.empty(), "8 threads vs 1: " + d8);
        for (const RoutingResult* r : {&r2, &r8}) {
          prop_require(
              r->counters.sta_net_evals == r1.counters.sta_net_evals,
              "sta_net_evals vary with thread count");
          prop_require(
              r->counters.sta_block_updates == r1.counters.sta_block_updates,
              "sta_block_updates vary with thread count");
          prop_require(r->counters.heap_pushes == r1.counters.heap_pushes,
                       "heap_pushes vary with thread count");
        }
      },
      shrink_design_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 30u);
}

}  // namespace
}  // namespace nemfpga::verify
