// Golden routing results for the default profile (geometric lookahead +
// deterministic net-parallel batches; the Wmin probes route with the
// serial scheduler): tree checksums, iteration counts and Wmin, which
// must also be bit-identical at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "netlist/mcnc.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

/// FNV-1a over every tree's source, edge list and reached sinks, in net
/// order. Any change to any net's topology changes the digest.
std::uint64_t routing_checksum(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& t : r.trees) {
    mix(t.source);
    mix(t.edges.size());
    for (const auto& [from, to] : t.edges) {
      mix((static_cast<std::uint64_t>(from) << 32) | to);
    }
    for (RrNodeId s : t.sinks) mix(s);
  }
  return h;
}

struct Golden {
  const char* circuit;
  std::size_t w_fixed;        ///< Channel width for the fixed-W route.
  std::uint64_t checksum;     ///< routing_checksum at w_fixed.
  std::size_t iterations;     ///< PathFinder iterations at w_fixed.
  std::size_t w_min;          ///< find_min_channel_width (hint 32).
};

/// gtest's default printer dumps the struct's bytes, which include the
/// address of `circuit` and so change from run to run under ASLR; print
/// the circuit so the listed test names are stable.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.circuit; }

// Captured from the A*-lookahead net-parallel router, on placements from
// the annealer's default start temperature (every placement moves with
// it, even at this test's own inner_num).
constexpr Golden kDefaultGolden[] = {
    {"tseng", 48, 6272790212838753902ull, 18, 45},
    {"ex5p", 48, 1738229562573265447ull, 11, 45},
};

struct GoldenFlow {
  Netlist nl;
  ArchParams arch;
  Packing pk;
  Placement pl;

  explicit GoldenFlow(const char* name, std::size_t w) {
    nl = generate_benchmark(name);
    arch.W = w;
    pk = pack_netlist(nl, arch);
    const auto [nx, ny] =
        grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
    PlaceOptions popt;
    popt.inner_num = 0.3;  // keep the test quick; still deterministic
    pl = place(nl, pk, arch, nx, ny, popt);
  }
};

class RouteGoldenDefault : public ::testing::TestWithParam<Golden> {};

TEST_P(RouteGoldenDefault, DefaultProfileMatchesGoldenAtAnyThreadCount) {
  const Golden& gold = GetParam();
  GoldenFlow f(gold.circuit, gold.w_fixed);
  const RrGraph g(f.arch, f.pl.nx, f.pl.ny);

  ThreadPool serial(1), wide(8);
  RoutingResult r1, r8;
  ChannelWidthResult w1, w8;
  {
    ThreadPool::ScopedUse use(serial);
    r1 = route_all(g, f.pl);
    w1 = find_min_channel_width(f.arch, f.pl, 32);
  }
  {
    ThreadPool::ScopedUse use(wide);
    r8 = route_all(g, f.pl);
    w8 = find_min_channel_width(f.arch, f.pl, 32);
  }

  ASSERT_TRUE(r1.success);
  check_routing(g, f.pl, r1);

  // Observability counters: the search did real work, and the scratch
  // arena hit steady state — buffer growths are confined to the first few
  // nets, so the per-net loop is allocation-free for >99% of nets.
  const RouteCounters& c = r1.counters;
  EXPECT_GT(c.heap_pushes, 0u);
  EXPECT_GE(c.heap_pushes, c.heap_pops);
  EXPECT_GT(c.nodes_expanded, 0u);
  EXPECT_GT(c.sink_searches, 0u);
  EXPECT_GT(c.lookahead_hits, 0u);
  EXPECT_GT(c.batches, 0u);
  // Disjoint batches never conflict on a resource, but a speculative
  // member whose sink needs a detour outside its routing window is
  // replayed serially too (the unconstrained-retry path) — those replays
  // are decided by the frozen batch state, so the count is part of the
  // bit-determinism contract checked against r8 below, not zero.
  EXPECT_GT(c.t_lookahead_build_s, 0.0);
  EXPECT_LE(c.scratch_grows * 100, c.nets_routed);

  EXPECT_EQ(routing_checksum(r1), gold.checksum) << gold.circuit;
  EXPECT_EQ(r1.iterations, gold.iterations) << gold.circuit;
  EXPECT_EQ(w1.w_min, gold.w_min) << gold.circuit;

  // Thread count must not influence any routing decision, nor any
  // counter other than scratch_grows (per-worker arena warm-up).
  EXPECT_EQ(routing_checksum(r8), routing_checksum(r1));
  EXPECT_EQ(r8.iterations, r1.iterations);
  EXPECT_EQ(w8.w_min, w1.w_min);
  EXPECT_EQ(r8.counters.heap_pushes, c.heap_pushes);
  EXPECT_EQ(r8.counters.nodes_expanded, c.nodes_expanded);
  EXPECT_EQ(r8.counters.batches, c.batches);
  EXPECT_EQ(r8.counters.conflict_replays, c.conflict_replays);
}

INSTANTIATE_TEST_SUITE_P(Seed, RouteGoldenDefault,
                         ::testing::ValuesIn(kDefaultGolden),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace nemfpga
