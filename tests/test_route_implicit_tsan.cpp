// ThreadSanitizer coverage for the batched net-parallel route stage over
// the implicit RR backend: batch members route concurrently against
// shared occupancy while expanding edges through the coordinate-computed
// graph, each into its own scratch arena (including the implicit edge
// buffer). In a plain build this is a fast smoke plus the 1-vs-8-thread
// bit-identity contract; in an NF_TSAN build (cmake -DNF_TSAN=ON) it is
// the race check for that backend — workers may only read the frozen
// occupancy and the (stateless) implicit graph, so TSan must stay silent.
// Kept to two iterations (route + rip/reroute round) so the tier1 suite
// stays fast even under TSan's ~10x slowdown.
#include <gtest/gtest.h>

#include "netlist/mcnc.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

TEST(RouteImplicitTsan, BatchedSchedulerIsRaceFreeAndThreadInvariant) {
  Netlist nl = generate_benchmark("tseng");
  ArchParams arch;
  arch.W = 48;
  Packing pk = pack_netlist(nl, arch);
  const auto [nx, ny] =
      grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
  PlaceOptions popt;
  popt.inner_num = 0.3;
  const Placement pl = place(nl, pk, arch, nx, ny, popt);
  const ImplicitRrGraph g(arch, pl.nx, pl.ny);

  RouteOptions opt;  // defaults: lookahead on, net_parallel on
  opt.rr_backend = RrBackend::kImplicit;
  opt.max_iterations = 2;  // iteration 2 runs the rip-up/reroute path

  RoutingResult r1, r8;
  {
    ThreadPool narrow(1);
    ThreadPool::ScopedUse use(narrow);
    r1 = route_all(g, pl, opt);
  }
  {
    ThreadPool wide(8);
    ThreadPool::ScopedUse use(wide);
    r8 = route_all(g, pl, opt);
  }

  // Two iterations rarely clear congestion; what matters is that the
  // batched stage really dispatched concurrent members...
  EXPECT_EQ(r8.iterations, 2u);
  EXPECT_GT(r8.counters.batches, 0u);
  EXPECT_GT(r8.counters.nets_rerouted, 0u);

  // ...and that the trees and work counters are bit-identical at any
  // thread count (the batch schedule and the commit/replay order depend
  // only on the routing state, never on worker interleaving).
  EXPECT_EQ(r1.iterations, r8.iterations);
  EXPECT_EQ(r1.counters.batches, r8.counters.batches);
  EXPECT_EQ(r1.counters.conflict_replays, r8.counters.conflict_replays);
  EXPECT_EQ(r1.counters.nodes_expanded, r8.counters.nodes_expanded);
  ASSERT_EQ(r1.trees.size(), r8.trees.size());
  for (std::size_t n = 0; n < r1.trees.size(); ++n) {
    ASSERT_EQ(r1.trees[n].source, r8.trees[n].source) << "net " << n;
    ASSERT_EQ(r1.trees[n].edges, r8.trees[n].edges) << "net " << n;
    ASSERT_EQ(r1.trees[n].sinks, r8.trees[n].sinks) << "net " << n;
  }
}

}  // namespace
}  // namespace nemfpga
