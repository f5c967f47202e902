// Differential property: the optimized, allocation-free PathFinder
// (route_all) must agree bit-for-bit with the naive reference router
// (verify::reference_route_all) — same trees, same iteration count, same
// overuse and wire census — over hundreds of randomized small designs
// spanning both schedulers (serial and batched), varying A* weights and
// bounding boxes, and both RR backends (the production router on the
// case's backend, the reference always on the stored-adjacency graph — so
// implicit-backend cases also prove cross-backend bit-identity
// end-to-end).
#include <gtest/gtest.h>

#include <memory>

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

TEST(PropRouteDiff, OptimizedMatchesReferenceBitForBit) {
  const PropConfig cfg = PropConfig::from_env(200);
  const PropResult res = check(
      "route_diff", cfg, gen_design_case,
      [](const DesignCase& c) {
        const BuiltDesign d = build_design(c);
        const RrGraph eg(d.arch, d.nx, d.ny);
        const std::unique_ptr<ImplicitRrGraph> ig =
            c.route.rr_backend == RrBackend::kImplicit
                ? std::make_unique<ImplicitRrGraph>(d.arch, d.nx, d.ny)
                : nullptr;
        // Production router on the case's backend; reference always on
        // the explicit graph.
        const RrGraphView g = ig ? RrGraphView(*ig) : RrGraphView(eg);
        // Timing-driven cases pair the production incremental STA with
        // the naive full-recompute reference hook (one instance per
        // router — hooks are stateful), so the diff below also proves the
        // two timing implementations steer both routers identically.
        const ElectricalView view =
            make_view(d.arch, FpgaVariant::kCmosBaseline);
        std::unique_ptr<RouterTimingHook> fast_hook, ref_hook;
        RouteOptions fast_opt = c.route, ref_opt = c.route;
        if (c.route.timing_driven) {
          fast_hook = make_incremental_sta(d.nl, d.pk, d.pl, g, view,
                                           c.route.criticality_exp,
                                           c.route.max_criticality);
          ref_hook = make_reference_sta(d.nl, d.pk, d.pl, eg, view,
                                        c.route.criticality_exp,
                                        c.route.max_criticality);
          fast_opt.timing_hook = fast_hook.get();
          ref_opt.timing_hook = ref_hook.get();
        }
        const RoutingResult fast = route_all(g, d.pl, fast_opt);
        const RoutingResult ref = reference_route_all(eg, d.pl, ref_opt);
        const std::string diff = diff_routing(fast, ref);
        prop_require(diff.empty(), "route_all vs reference: " + diff);
        // When the routing succeeded it must also be legal.
        if (fast.success) check_routing(g, d.pl, fast);
        if (fast.success && ig) check_routing(RrGraphView(eg), d.pl, fast);
      },
      shrink_design_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 200u);
}

// The deterministic-parallelism contract, as a property: with
// net_parallel on, the batched router must produce bit-identical trees,
// iteration counts and work counters at 1, 2 and 8 threads — the batch
// schedule and the commit/replay order may depend only on (graph,
// placement, options). scratch_grows is the single documented exception
// (per-worker arena warm-up).
TEST(PropRouteDiff, RoutingIsThreadCountInvariant) {
  const PropConfig cfg = PropConfig::from_env(60);
  ThreadPool one(1), two(2), eight(8);
  const PropResult res = check(
      "route_threads", cfg, gen_design_case,
      [&](const DesignCase& c) {
        DesignCase pc = c;
        pc.route.net_parallel = true;  // always exercise a scheduler
        const BuiltDesign d = build_design(pc);
        const RrGraph eg(d.arch, d.nx, d.ny);
        const std::unique_ptr<ImplicitRrGraph> ig =
            pc.route.rr_backend == RrBackend::kImplicit
                ? std::make_unique<ImplicitRrGraph>(d.arch, d.nx, d.ny)
                : nullptr;
        const RrGraphView g = ig ? RrGraphView(*ig) : RrGraphView(eg);
        const ElectricalView view =
            make_view(d.arch, FpgaVariant::kCmosBaseline);
        auto run = [&](ThreadPool& pool) {
          ThreadPool::ScopedUse use(pool);
          // Fresh hook per run: a hook instance serves one route_all.
          std::unique_ptr<RouterTimingHook> hook;
          RouteOptions ropt = pc.route;
          if (ropt.timing_driven) {
            hook = make_incremental_sta(d.nl, d.pk, d.pl, g, view,
                                        ropt.criticality_exp,
                                        ropt.max_criticality);
            ropt.timing_hook = hook.get();
          }
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
          prop_require(r->counters.heap_pushes == r1.counters.heap_pushes,
                       "heap_pushes vary with thread count");
          prop_require(
              r->counters.nodes_expanded == r1.counters.nodes_expanded,
              "nodes_expanded vary with thread count");
          prop_require(r->counters.batches == r1.counters.batches,
                       "batches vary with thread count");
          prop_require(
              r->counters.conflict_replays == r1.counters.conflict_replays,
              "conflict_replays vary with thread count");
        }
      },
      shrink_design_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 60u);
}

}  // namespace
}  // namespace nemfpga::verify
