// Differential property for the placer's incremental bounding-box cost
// engine (place.hpp NetCostModel) against the full-rescan oracle in
// src/verify/reference_place.cpp, over randomized move sequences: per-net
// boxes and costs must agree bitwise after every commit, the incremental
// and naive kernels must produce bit-identical deltas, and the tracked
// total must stay within 1e-9 relative of a from-scratch recompute. Plus
// a whole-placer property: every randomized configuration (directed
// generators, timing-driven second anneal) yields a legal placement with
// a consistent reported cost.
#include <gtest/gtest.h>

#include <vector>

#include "place/place.hpp"
#include "verify/generators.hpp"
#include "verify/oracles.hpp"
#include "verify/prop.hpp"

namespace nemfpga::verify {
namespace {

void run_cost_sequence(Rng& rng) {
  DesignCase c = gen_design_case(rng);
  c.place_timing = false;  // the move sequence below drives the model
  const BuiltDesign d = build_design(c);
  if (d.pl.nets.empty()) return;

  const std::vector<PlacedNet>& nets = d.pl.nets;
  const std::size_t n_blocks = d.pl.locs.size();
  NetCostModel model(&nets, n_blocks);
  std::vector<double> w(nets.size(), 1.0);
  if (rng.chance(0.5)) {
    for (auto& x : w) x = 1.0 + 4.0 * rng.uniform();
  }
  model.set_weights(w);
  std::vector<BlockLoc> locs = d.pl.locs;
  model.rebuild(locs);
  prop_require_close(model.total_cost(),
                     reference_placement_cost(nets, w, locs), 1e-9,
                     "rebuild total vs full rescan");

  NetCostModel::Pending pend, pend_naive;
  const std::size_t moves = 40 + rng.uniform_int(160);
  for (std::size_t m = 0; m < moves; ++m) {
    const std::size_t a = rng.uniform_int(n_blocks);
    const BlockLoc old_a = locs[a];
    BlockLoc new_a;
    new_a.x = rng.uniform_int(d.nx + 2);
    new_a.y = rng.uniform_int(d.ny + 2);
    new_a.sub = old_a.sub;
    std::size_t b = NetCostModel::kNoBlock;
    BlockLoc new_b;
    if (rng.chance(0.5)) {
      const std::size_t cand = rng.uniform_int(n_blocks);
      if (cand != a) {
        b = cand;
        // Usually a swap (b takes a's old site); sometimes an unrelated
        // second move — the model supports both.
        if (rng.chance(0.7)) {
          new_b = old_a;
        } else {
          new_b.x = rng.uniform_int(d.nx + 2);
          new_b.y = rng.uniform_int(d.ny + 2);
          new_b.sub = locs[b].sub;
        }
      }
    }

    pend.clear();
    pend_naive.clear();
    const double delta = model.propose(locs, a, new_a, b, new_b, pend);
    const double delta_naive =
        model.propose_naive(locs, a, new_a, b, new_b, pend_naive);
    prop_require(delta == delta_naive,
                 "incremental and naive kernels disagree on the delta");

    if (rng.chance(0.3)) continue;  // rejected move: nothing to undo

    model.commit(pend);
    locs[a] = new_a;
    if (b != NetCostModel::kNoBlock) locs[b] = new_b;

    for (const auto& pn : pend.nets) {
      const ReferenceNetBox ref = reference_net_box(nets[pn.net], locs);
      const NetCostModel::Box& box = model.box(pn.net);
      prop_require(box.x_lo == ref.x_lo && box.x_hi == ref.x_hi &&
                       box.y_lo == ref.y_lo && box.y_hi == ref.y_hi,
                   "committed box disagrees with full rescan");
      prop_require(
          box.cost == reference_net_cost(nets[pn.net], w[pn.net], locs),
          "committed net cost is not bit-identical to the oracle");
    }
    prop_require_close(model.total_cost(),
                       reference_placement_cost(nets, w, locs), 1e-9,
                       "tracked total drifted from the full rescan");
  }
}

TEST(PropPlaceDiff, IncrementalCostMatchesFullRescan) {
  const PropConfig cfg = PropConfig::from_env(200);
  const PropResult res =
      check_seeds("place_cost_diff", cfg, run_cost_sequence);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 200u);
}

void run_place_case(Rng& rng) {
  const DesignCase c = gen_design_case(rng);
  const BuiltDesign d = build_design(c);
  check_placement(d.pk, d.arch, d.pl);  // throws on an illegal placement
  prop_require_close(d.pl.final_cost, placement_cost(d.pl), 1e-9,
                     "final_cost vs placement_cost");
  if (!c.place_timing) {
    prop_require(d.pl.final_weighted_cost == d.pl.final_cost,
                 "weighted cost must equal unweighted without timing");
  }
  prop_require(d.pl.counters.proposed >= d.pl.counters.accepted,
               "accepted moves exceed proposals");
}

TEST(PropPlaceDiff, RandomConfigsPlaceLegallyWithConsistentCost) {
  const PropConfig cfg = PropConfig::from_env(100);
  const PropResult res = check_seeds("place_legal", cfg, run_place_case);
  EXPECT_TRUE(res.ok()) << res.report();
  EXPECT_GE(res.cases_run, cfg.only_case ? 1u : 100u);
}

}  // namespace
}  // namespace nemfpga::verify
