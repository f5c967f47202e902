#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/overuse.hpp"
#include "route/route.hpp"
#include "util/rng.hpp"

namespace nemfpga {
namespace {

struct Flow {
  Netlist nl;
  ArchParams arch;
  Packing pk;
  Placement pl;

  Flow(std::size_t n_luts, std::size_t w, const char* name) {
    SynthSpec spec;
    spec.name = name;
    spec.n_luts = n_luts;
    spec.n_inputs = 16;
    spec.n_outputs = 12;
    spec.n_latches = n_luts / 12;
    nl = generate_netlist(spec);
    arch.W = w;
    pk = pack_netlist(nl, arch);
    const auto [nx, ny] = grid_size_for(
        arch, pk.clusters.size(), pk.io_block_count());
    pl = place(nl, pk, arch, nx, ny);
  }
};

TEST(Route, RoutesSmallDesign) {
  Flow f(120, 40, "route-small");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  const auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success) << "overused=" << r.overused_nodes
                         << " after " << r.iterations << " iterations";
  check_routing(g, f.pl, r);
  EXPECT_GT(r.wire_segments_used, 0u);
  EXPECT_GT(r.total_wire_tiles, 0.0);
}

TEST(Route, EveryNetHasTreeReachingAllSinks) {
  Flow f(150, 40, "route-sinks");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  const auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.trees.size(), f.pl.nets.size());
  for (std::size_t n = 0; n < f.pl.nets.size(); ++n) {
    // sinks recorded per sink block (shared SINKs may repeat).
    EXPECT_EQ(r.trees[n].sinks.size(), f.pl.nets[n].sinks.size());
    EXPECT_FALSE(r.trees[n].edges.empty());
  }
}

TEST(Route, FailsGracefullyWhenTooNarrow) {
  Flow f(150, 40, "route-narrow");
  ArchParams narrow = f.arch;
  narrow.W = 4;
  const RrGraph g(narrow, f.pl.nx, f.pl.ny);
  RouteOptions opt;
  opt.max_iterations = 6;
  const auto r = route_all(g, f.pl, opt);
  EXPECT_FALSE(r.success);
}

TEST(Route, WiderChannelRoutesFasterOrEqual) {
  Flow f(150, 40, "route-width");
  ArchParams wide = f.arch;
  wide.W = 60;
  const RrGraph g1(f.arch, f.pl.nx, f.pl.ny);
  const RrGraph g2(wide, f.pl.nx, f.pl.ny);
  const auto r1 = route_all(g1, f.pl);
  const auto r2 = route_all(g2, f.pl);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  // Iteration counts are not strictly monotone in W (tap patterns shift),
  // but a wider fabric must not be drastically harder to converge.
  EXPECT_LE(r2.iterations, 2 * r1.iterations + 4);
}

TEST(Route, MinChannelWidthSearch) {
  Flow f(120, 40, "route-wmin");
  const auto cw = find_min_channel_width(f.arch, f.pl, 32);
  EXPECT_GT(cw.w_min, 2u);
  EXPECT_LT(cw.w_min, 80u);
  // 1.2x low-stress policy, rounded even.
  EXPECT_GE(cw.w_low_stress, cw.w_min);
  EXPECT_EQ(cw.w_low_stress % 2, 0u);
  EXPECT_LE(cw.w_low_stress,
            static_cast<std::size_t>(1.2 * cw.w_min + 2.5));

  // Routing exactly at Wmin succeeds; at Wmin-2 it must not.
  ArchParams at = f.arch;
  at.W = cw.w_min;
  const RrGraph g_at(at, f.pl.nx, f.pl.ny);
  EXPECT_TRUE(route_all(g_at, f.pl).success);
  if (cw.w_min > 4) {
    ArchParams below = f.arch;
    below.W = cw.w_min - 2;
    const RrGraph g_below(below, f.pl.nx, f.pl.ny);
    RouteOptions opt;
    opt.max_iterations = 30;
    EXPECT_FALSE(route_all(g_below, f.pl, opt).success);
  }
}

TEST(Route, MinChannelWidthReportsInfeasibleAtCap) {
  // Deliberately unroutable fabric: the grow cap sits far below this
  // design's real Wmin (~20), so the search must saturate and return the
  // explicit infeasible status — not a garbage width (w_min/w_low_stress
  // were previously left 0-but-"valid", and callers consumed them).
  Flow f(150, 40, "route-infeasible");
  RouteOptions opt;
  opt.max_channel_width = 6;
  opt.max_iterations = 8;  // keep each doomed probe quick
  const auto cw = find_min_channel_width(f.arch, f.pl, 4, opt);
  EXPECT_FALSE(cw.feasible);
  EXPECT_EQ(cw.w_min, 0u);
  EXPECT_EQ(cw.w_low_stress, 0u);
  EXPECT_EQ(cw.w_cap, 6u);

  // The identical search without the cap is feasible — the verdict comes
  // from the cap, not from the design.
  RouteOptions uncapped;
  uncapped.max_iterations = 30;
  const auto ok = find_min_channel_width(f.arch, f.pl, 4, uncapped);
  EXPECT_TRUE(ok.feasible);
  EXPECT_GT(ok.w_min, 6u);
}

TEST(Route, DeterministicResult) {
  Flow f(100, 40, "route-det");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  const auto r1 = route_all(g, f.pl);
  const auto r2 = route_all(g, f.pl);
  ASSERT_TRUE(r1.success);
  ASSERT_EQ(r1.trees.size(), r2.trees.size());
  for (std::size_t n = 0; n < r1.trees.size(); ++n) {
    EXPECT_EQ(r1.trees[n].edges, r2.trees[n].edges);
  }
}

TEST(Route, StopTokenRaisedBeforeTheCallStopsAtOnce) {
  Flow f(100, 40, "route-stop");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  const RoutingResult plain = route_all(g, f.pl);
  ASSERT_TRUE(plain.success);
  EXPECT_FALSE(plain.stopped);

  // A lowered token changes nothing.
  const std::atomic<bool> lowered{false};
  RouteOptions opt;
  opt.stop = &lowered;
  const RoutingResult same = route_all(g, f.pl, opt);
  EXPECT_TRUE(same.success);
  EXPECT_FALSE(same.stopped);
  EXPECT_EQ(same.iterations, plain.iterations);
  for (std::size_t n = 0; n < plain.trees.size(); ++n) {
    EXPECT_EQ(same.trees[n].edges, plain.trees[n].edges);
  }

  // A raised one stops both entry points before any routing: a stopped
  // run is never reported as routed.
  const std::atomic<bool> raised{true};
  opt.stop = &raised;
  const RoutingResult r = route_all(g, f.pl, opt);
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.iterations, 1u);
  std::vector<RouteTree> base = plain.trees;
  base[0] = RouteTree{};
  const RoutingResult ri = route_incremental(g, f.pl, base, opt);
  EXPECT_TRUE(ri.stopped);
  EXPECT_FALSE(ri.success);
  EXPECT_LE(ri.iterations, 1u);
}

TEST(OveruseTracker, IncDecMaintainsExactCountAndFlags) {
  OveruseTracker t(std::vector<std::uint16_t>{1, 2, 1, 3});
  EXPECT_EQ(t.overused_count(), 0u);
  EXPECT_TRUE(t.consistent());

  t.inc(0);  // occ=1 cap=1 — full but not overused
  EXPECT_FALSE(t.overused(0));
  EXPECT_EQ(t.overused_count(), 0u);

  t.inc(0);  // occ=2 — overused
  EXPECT_TRUE(t.overused(0));
  EXPECT_EQ(t.overused_count(), 1u);
  EXPECT_TRUE(t.consistent());

  t.inc(1);
  t.inc(1);
  t.inc(1);  // occ=3 cap=2 — overused
  EXPECT_EQ(t.overused_count(), 2u);

  t.dec(0);  // back to occ=1 — clears
  EXPECT_FALSE(t.overused(0));
  EXPECT_EQ(t.overused_count(), 1u);
  EXPECT_TRUE(t.consistent());
}

TEST(OveruseTracker, RipUpRerouteChurnStaysConsistent) {
  // Deterministic random inc/dec churn, never letting occ go negative,
  // validated against the O(V) ground-truth recount.
  const std::size_t n = 64;
  std::vector<std::uint16_t> cap(n);
  Rng rng(1234);
  for (auto& c : cap) c = static_cast<std::uint16_t>(1 + rng.next_u64() % 3);
  OveruseTracker t(cap);
  std::vector<int> occ(n, 0);
  for (int step = 0; step < 5000; ++step) {
    const RrNodeId id = rng.next_u64() % n;
    if (occ[id] > 0 && rng.next_u64() % 2) {
      --occ[id];
      t.dec(id);
    } else {
      ++occ[id];
      t.inc(id);
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(t.consistent()) << "step " << step;
    }
  }
  EXPECT_TRUE(t.consistent());
}

TEST(OveruseTracker, ForEachVisitsEachOverusedOnceAndCompacts) {
  OveruseTracker t(std::vector<std::uint16_t>{1, 1, 1, 1});
  t.inc(0);
  t.inc(0);  // over by 1
  t.inc(2);
  t.inc(2);
  t.inc(2);  // over by 2
  t.inc(3);
  t.inc(3);  // over by 1, then cleared again below
  t.dec(3);

  std::vector<std::pair<RrNodeId, int>> seen;
  t.for_each_overused([&](RrNodeId id, int over) {
    seen.emplace_back(id, over);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<RrNodeId, int>{0, 1}));
  EXPECT_EQ(seen[1], (std::pair<RrNodeId, int>{2, 2}));
  EXPECT_TRUE(t.consistent());

  // Re-overusing a still-listed node must not double-visit it.
  t.inc(3);
  seen.clear();
  t.for_each_overused([&](RrNodeId id, int) { seen.emplace_back(id, 0); });
  ASSERT_EQ(seen.size(), 3u);
  std::vector<RrNodeId> ids;
  for (const auto& [id, over] : seen) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RrNodeId>{0, 2, 3}));
}

TEST(Route, RejectsInvalidAstarFactor) {
  // The lookahead weight scales every heuristic evaluation; zero,
  // negative and non-finite weights are rejected up front, naming the
  // option.
  Flow f(100, 40, "route-astar");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  for (const double bad : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    RouteOptions opt;
    opt.astar_factor = bad;
    try {
      route_all(g, f.pl, opt);
      ADD_FAILURE() << "route_all accepted astar_factor " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("astar_factor"),
                std::string::npos);
    }
    EXPECT_THROW(find_min_channel_width(f.arch, f.pl, 32, opt),
                 std::invalid_argument);
  }
}

TEST(Route, CheckRoutingCatchesWrongSource) {
  Flow f(100, 40, "route-check-src");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success);
  r.trees[0].source = r.trees[0].source + 1;
  EXPECT_THROW(check_routing(g, f.pl, r), std::logic_error);
}

TEST(Route, CheckRoutingCatchesDisconnectedEdge) {
  Flow f(100, 40, "route-check-edge");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success);
  // Point the first edge's parent at a node the tree never reached.
  std::size_t victim = r.trees.size();
  for (std::size_t n = 0; n < r.trees.size(); ++n) {
    if (!r.trees[n].edges.empty()) {
      victim = n;
      break;
    }
  }
  ASSERT_LT(victim, r.trees.size());
  auto& e = r.trees[victim].edges.front();
  e.first = (e.first + 1 == g.node_count()) ? e.first - 1 : e.first + 1;
  EXPECT_THROW(check_routing(g, f.pl, r), std::logic_error);
}

TEST(Route, CheckRoutingCatchesCapacityViolation) {
  Flow f(100, 40, "route-check-cap");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success);
  // Occupancy is deduped per net, so the violation must span two nets:
  // splice a unit-capacity wire already used by one tree into a second
  // tree, hanging it off that tree's own source so the edge itself is
  // connected. The wire then carries two nets against capacity 1.
  RrNodeId wire = kNoRrNode;
  std::size_t owner = r.trees.size();
  for (std::size_t n = 0; n < r.trees.size() && wire == kNoRrNode; ++n) {
    for (const auto& [from, to] : r.trees[n].edges) {
      const auto ty = g.node(to).type;
      if ((ty == RrType::kChanX || ty == RrType::kChanY) &&
          g.node(to).capacity == 1) {
        wire = to;
        owner = n;
        break;
      }
    }
  }
  ASSERT_NE(wire, kNoRrNode);
  std::size_t other = r.trees.size();
  for (std::size_t n = 0; n < r.trees.size(); ++n) {
    if (n == owner) continue;
    bool uses = false;
    for (const auto& [from, to] : r.trees[n].edges) {
      if (to == wire) uses = true;
    }
    if (!uses) {
      other = n;
      break;
    }
  }
  ASSERT_LT(other, r.trees.size());
  r.trees[other].edges.emplace_back(r.trees[other].source, wire);
  EXPECT_THROW(check_routing(g, f.pl, r), std::logic_error);
}

TEST(Route, CheckRoutingCatchesCorruption) {
  Flow f(100, 40, "route-check");
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);
  auto r = route_all(g, f.pl);
  ASSERT_TRUE(r.success);
  check_routing(g, f.pl, r);
  // Corrupt: drop one tree's edges.
  ASSERT_FALSE(r.trees.empty());
  std::size_t victim = 0;
  for (std::size_t n = 0; n < r.trees.size(); ++n) {
    if (!f.pl.nets[n].sinks.empty()) {
      victim = n;
      break;
    }
  }
  r.trees[victim].edges.clear();
  EXPECT_THROW(check_routing(g, f.pl, r), std::logic_error);
}

TEST(Route, MediumBenchmarkEndToEnd) {
  // ex5p (1064 LUTs) through pack/place/route at a generous width.
  const Netlist nl = generate_benchmark("ex5p");
  ArchParams arch;
  arch.W = 60;
  const auto pk = pack_netlist(nl, arch);
  const auto [nx, ny] =
      grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
  PlaceOptions popt;
  popt.inner_num = 0.3;  // keep the unit test quick
  const auto pl = place(nl, pk, arch, nx, ny, popt);
  const RrGraph g(arch, nx, ny);
  const auto r = route_all(g, pl);
  ASSERT_TRUE(r.success);
  check_routing(g, pl, r);
}

}  // namespace
}  // namespace nemfpga
