// Full-flow differential property for the incremental ECO flow
// (src/flow/eco.hpp). Randomized edit streams — pin connects/disconnects/
// retargets, block moves and swaps, compounding over 1..12 deltas — replay
// through a live EcoFlow session while every applied delta is checked
// against from-scratch recomputation of the same state:
//
//   * routing stays legal (check_routing) with overuse == 0,
//   * the touched-clusters-only packing refresh matches the from-scratch
//     oracle (reference_refresh_packing) bitwise,
//   * the spliced placed-net list matches extract_placed_nets bitwise,
//   * the cached-delay CP matches a full analyze_timing to 1e-12,
//   * a rejected delta leaves netlist, placement and routing bit-identical,
//   * the final state routes from scratch and its CP sits inside a pinned
//     envelope of the freshly negotiated routing's CP,
//   * the whole replay is bit-identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "flow/eco.hpp"
#include "netlist/synth_gen.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"
#include "timing/variant.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"
#include "verify/oracles.hpp"
#include "verify/prop.hpp"

namespace nemfpga::verify {
namespace {

constexpr double kStaTol = 1e-12;
/// Pinned CP quality envelope: the ECO state's critical path vs a fresh
/// route_all negotiation of the identical (netlist, packing, placement).
/// Seeded reroutes keep old wires, so some drift is expected; 2x in
/// either direction bounds it while staying far from flakiness.
constexpr double kCpEnvelope = 2.0;

EcoOptions eco_options(const DesignCase& c) {
  EcoOptions o;
  o.arch = c.arch;
  o.route = c.route;
  o.place.seed = c.place_seed;
  o.place.inner_num = c.place_inner_num;
  o.place.directed_moves = c.place_directed;
  o.place.timing_driven = c.place_timing;
  o.seed = c.place_seed;
  return o;
}

NetlistDelta draw_delta(const EcoCase& c, std::size_t step,
                        const EcoFlow& flow) {
  Rng erng = Rng::from_stream(c.edit_seed, step);
  return gen_eco_delta(erng, flow.netlist(), flow.packing(), flow.arch(),
                       flow.nx(), flow.ny(), flow.placement().locs);
}

std::vector<std::vector<NetId>> snapshot_pins(const Netlist& nl) {
  std::vector<std::vector<NetId>> pins;
  pins.reserve(nl.block_count());
  for (const Block& b : nl.blocks()) pins.push_back(b.inputs);
  return pins;
}

bool locs_equal(const std::vector<BlockLoc>& a,
                const std::vector<BlockLoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].sub != b[i].sub) {
      return false;
    }
  }
  return true;
}

void require_placed_nets_match(const std::vector<PlacedNet>& eco,
                               const std::vector<PlacedNet>& scratch,
                               const std::string& at) {
  prop_require(eco.size() == scratch.size(),
               "placed-net count " + std::to_string(eco.size()) + " vs " +
                   std::to_string(scratch.size()) + at);
  for (std::size_t i = 0; i < eco.size(); ++i) {
    prop_require(eco[i].net == scratch[i].net &&
                     eco[i].driver == scratch[i].driver &&
                     eco[i].sinks == scratch[i].sinks,
                 "placed-net slot " + std::to_string(i) +
                     " diverges from extract_placed_nets" + at);
  }
}

/// Replay one edit stream with the full per-apply differential checks.
void replay_with_checks(const EcoCase& c) {
  const EcoOptions opt = eco_options(c.design);
  EcoFlow flow(generate_netlist(c.design.spec), opt);
  if (!flow.routed()) return;  // unroutable base: vacuous case
  const ElectricalView view = make_view(opt.arch, opt.timing_backend);

  for (std::size_t step = 0; step < c.n_edits; ++step) {
    const NetlistDelta delta = draw_delta(c, step, flow);
    const std::string at =
        " (step " + std::to_string(step) + ": " + delta.describe() + ")";

    const auto pins_snap = snapshot_pins(flow.netlist());
    const std::vector<BlockLoc> locs_snap = flow.placement().locs;
    const RoutingResult route_snap = flow.routing();

    const EcoResult r = flow.apply(delta);
    switch (r.status) {
      case EcoStatus::kRejected: {
        prop_require(!r.reject_reason.empty(),
                     "rejection without a reason" + at);
        prop_require(snapshot_pins(flow.netlist()) == pins_snap,
                     "rejected delta mutated the netlist" + at);
        prop_require(locs_equal(flow.placement().locs, locs_snap),
                     "rejected delta moved a block" + at);
        const std::string dr = diff_routing(route_snap, flow.routing());
        prop_require(dr.empty(),
                     "rejected delta touched the routing: " + dr + at);
        break;
      }
      case EcoStatus::kOk: {
        prop_require(r.legal && flow.routed(),
                     "kOk without a legal routing" + at);
        check_routing(flow.graph(), flow.placement(), flow.routing());
        prop_require(flow.routing().overused_nodes == 0,
                     "overuse after a legal apply" + at);
        prop_require(r.overused_nodes == 0,
                     "EcoResult reports overuse on a legal apply" + at);

        const Packing ref =
            reference_refresh_packing(flow.netlist(), flow.packing());
        const std::string dp = diff_packing(flow.packing(), ref);
        prop_require(dp.empty(), "packing refresh diverged: " + dp + at);

        require_placed_nets_match(
            flow.placement().nets,
            extract_placed_nets(flow.netlist(), flow.packing()), at);

        prop_require(r.cycle_detected == flow.has_comb_cycle(),
                     "cycle flag disagrees with the netlist probe" + at);
        if (r.timing_valid) {
          const TimingResult full = analyze_timing(
              flow.netlist(), flow.packing(), flow.placement(), flow.graph(),
              flow.routing(), view);
          prop_require_close(flow.critical_path_s(), full.critical_path,
                             kStaTol, "cached-delay CP vs analyze_timing" + at);
        } else {
          prop_require(r.cycle_detected,
                       "timing invalid on a routed, cycle-free state" + at);
        }
        break;
      }
      case EcoStatus::kUnroutable: {
        // The fallback already re-ran route_all from scratch, so this is
        // exactly the set of states a from-scratch flow cannot route
        // either. Later edits may make the design routable again.
        prop_require(!flow.routed(), "kUnroutable with a live routing" + at);
        break;
      }
      case EcoStatus::kNoop:
        prop_fail("generator produced an empty delta" + at);
    }
  }

  // Final-state scratch comparison: a fresh route_all over the ECO's
  // exact (netlist, packing, placement) must agree on routability, and
  // the ECO routing's CP must sit inside the pinned envelope of the
  // freshly negotiated one.
  if (!flow.routed()) return;
  RouteOptions ropt = opt.route;
  std::unique_ptr<RouterTimingHook> hook;
  if (ropt.timing_driven && !flow.has_comb_cycle()) {
    hook = make_incremental_sta(flow.netlist(), flow.packing(),
                                flow.placement(), flow.graph(), view,
                                ropt.criticality_exp, ropt.max_criticality);
    ropt.timing_hook = hook.get();
  } else {
    ropt.timing_driven = false;
    ropt.timing_hook = nullptr;
  }
  const RoutingResult scratch = route_all(flow.graph(), flow.placement(), ropt);
  if (!scratch.success) return;  // seeded negotiation out-routed scratch
  check_routing(flow.graph(), flow.placement(), scratch);
  prop_require(scratch.overused_nodes == 0, "scratch route left overuse");
  if (!flow.has_comb_cycle()) {
    const TimingResult eco_t = analyze_timing(
        flow.netlist(), flow.packing(), flow.placement(), flow.graph(),
        flow.routing(), view);
    const TimingResult scr_t = analyze_timing(
        flow.netlist(), flow.packing(), flow.placement(), flow.graph(),
        scratch, view);
    if (scr_t.critical_path > 0.0 && eco_t.critical_path > 0.0) {
      const double ratio = eco_t.critical_path / scr_t.critical_path;
      prop_require(ratio <= kCpEnvelope && ratio >= 1.0 / kCpEnvelope,
                   "final CP outside the pinned envelope: ratio " +
                       std::to_string(ratio));
    }
  }
}

// The headline harness: >= 200 randomized edit streams, each apply
// differentially checked against from-scratch recomputation.
TEST(PropEcoDiff, ReplayMatchesFromScratch) {
  const PropConfig cfg = PropConfig::from_env(200);
  const PropResult res = check("eco_diff", cfg, gen_eco_case,
                               replay_with_checks, shrink_eco_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 200u);
}

// The whole replay — base compile, every apply, the final state — must be
// bit-identical at 1, 2 and 8 threads: per-apply statuses, move/reroute
// counts, the final trees and the final CP (compared exactly, not to
// tolerance). Run under TSan this is also the concurrency soundness check
// for ECO reroutes on the shared pool.
TEST(PropEcoDiff, ReplayIsThreadCountInvariant) {
  const PropConfig cfg = PropConfig::from_env(40);
  ThreadPool one(1), two(2), eight(8);

  struct ReplayOut {
    std::vector<EcoStatus> statuses;
    std::vector<std::size_t> rerouted;
    RoutingResult routing;
    double cp = 0.0;
    bool routed = false;
  };

  const PropResult res = check(
      "eco_threads", cfg, gen_eco_case,
      [&](const EcoCase& c) {
        auto run = [&](ThreadPool& pool) {
          ThreadPool::ScopedUse use(pool);
          EcoOptions opt = eco_options(c.design);
          opt.route.net_parallel = true;  // always exercise the scheduler
          EcoFlow flow(generate_netlist(c.design.spec), opt);
          ReplayOut out;
          for (std::size_t step = 0; step < c.n_edits; ++step) {
            const EcoResult r = flow.apply(draw_delta(c, step, flow));
            out.statuses.push_back(r.status);
            out.rerouted.push_back(r.nets_rerouted);
          }
          out.routing = flow.routing();
          out.cp = flow.critical_path_s();
          out.routed = flow.routed();
          return out;
        };
        const ReplayOut o1 = run(one);
        const ReplayOut o2 = run(two);
        const ReplayOut o8 = run(eight);
        for (const ReplayOut* o : {&o2, &o8}) {
          prop_require(o->statuses == o1.statuses,
                       "apply statuses vary with thread count");
          prop_require(o->rerouted == o1.rerouted,
                       "reroute counts vary with thread count");
          prop_require(o->routed == o1.routed,
                       "routability varies with thread count");
          const std::string d = diff_routing(o->routing, o1.routing);
          prop_require(d.empty(), "final routing varies with threads: " + d);
          prop_require(o->cp == o1.cp,  // bitwise, not tolerance
                       "critical path varies with thread count");
        }
      },
      shrink_eco_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 40u);
}

// Quality envelope, width dimension: a state the ECO session reports as
// legally routed at the session width W must actually have Wmin <= W when
// probed from scratch (find_min_channel_width re-routes the final
// placement fresh at each candidate width).
TEST(PropEcoDiff, SessionWidthBoundsWmin) {
  const PropConfig cfg = PropConfig::from_env(15);
  const PropResult res = check(
      "eco_wmin", cfg, gen_eco_case,
      [](const EcoCase& c) {
        EcoCase cc = c;
        cc.n_edits = std::min<std::size_t>(cc.n_edits, 4);  // width probes
                                                            // dominate cost
        const EcoOptions opt = eco_options(cc.design);
        EcoFlow flow(generate_netlist(cc.design.spec), opt);
        if (!flow.routed()) return;
        for (std::size_t step = 0; step < cc.n_edits; ++step) {
          (void)flow.apply(draw_delta(cc, step, flow));
        }
        if (!flow.routed()) return;
        RouteOptions ropt = opt.route;
        ropt.timing_hook = nullptr;
        ropt.lookahead = nullptr;  // width-dependent graphs: rebuild per probe
        const ChannelWidthResult w = find_min_channel_width(
            opt.arch, flow.placement(), opt.arch.W, ropt);
        prop_require(w.feasible,
                     "ECO-legal state probes as unroutable at any width");
        prop_require(w.w_min <= opt.arch.W,
                     "Wmin " + std::to_string(w.w_min) +
                         " exceeds the session width " +
                         std::to_string(opt.arch.W));
      },
      shrink_eco_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 15u);
}

}  // namespace
}  // namespace nemfpga::verify
