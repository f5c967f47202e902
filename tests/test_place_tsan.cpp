// ThreadSanitizer coverage for the region anneal: a 22x22 placement whose
// 2x2 regions sweep concurrently on a 4-thread pool, sharing the
// occupancy maps (each region writes only its own sites) and merging at
// every barrier. In a plain build this is a quick functional check that
// the 4-thread result equals the serial one; in an NF_TSAN build (cmake
// -DNF_TSAN=ON) TSan must stay silent.
#include <gtest/gtest.h>

#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

TEST(PlaceTsan, RegionAnnealOnFourThreadsMatchesSerial) {
  SynthSpec spec;
  spec.name = "place-tsan";
  spec.n_luts = 1200;
  spec.n_inputs = 24;
  spec.n_outputs = 16;
  spec.n_latches = 60;
  const Netlist nl = generate_netlist(spec);
  const ArchParams arch;
  const Packing pk = pack_netlist(nl, arch);
  ASSERT_EQ(anneal_regions_per_axis(22), 2u);
  PlaceOptions opt;
  opt.inner_num = 0.3;
  opt.timing_driven = true;  // both anneals go through the region loop

  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    return place(nl, pk, arch, 22, 22, opt);
  };
  const Placement serial = run(1);
  const Placement par = run(4);
  check_placement(pk, arch, par);
  ASSERT_EQ(serial.locs.size(), par.locs.size());
  for (std::size_t b = 0; b < par.locs.size(); ++b) {
    EXPECT_EQ(serial.locs[b].x, par.locs[b].x);
    EXPECT_EQ(serial.locs[b].y, par.locs[b].y);
    EXPECT_EQ(serial.locs[b].sub, par.locs[b].sub);
  }
  EXPECT_EQ(serial.final_cost, par.final_cost);
  EXPECT_EQ(serial.final_weighted_cost, par.final_weighted_cost);
  EXPECT_EQ(serial.counters.proposed, par.counters.proposed);
  EXPECT_EQ(serial.counters.accepted, par.counters.accepted);
}

}  // namespace
}  // namespace nemfpga
