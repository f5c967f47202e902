// ThreadSanitizer coverage for the staged compile: run_flow places on a
// pool worker (the region anneal starting loops of its own) while the RR
// graph, delay model and lookahead build on the calling thread, and the
// lookahead folds its sample Dijkstras into chunk tables over the pool.
// In a plain build these are functional checks that any thread count
// reproduces the serial result bit for bit; in an NF_TSAN build (cmake
// -DNF_TSAN=ON) TSan must stay silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "core/flow.hpp"
#include "netlist/synth_gen.hpp"
#include "service/job_scheduler.hpp"
#include "timing/variant.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

/// FNV-1a over every block's site and the final costs' bits.
std::uint64_t placement_checksum(const Placement& pl) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const BlockLoc& l : pl.locs) {
    mix(l.x);
    mix(l.y);
    mix(l.sub);
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &pl.final_cost, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &pl.final_weighted_cost, sizeof(bits));
  mix(bits);
  return h;
}

TEST(FlowTsan, RunFlowOnFourThreadsMatchesSerial) {
  // 700 IO blocks need 22 sites a side at 8 pads per border tile, so the
  // anneal sweeps 2x2 regions while the artifacts build beside it.
  SynthSpec spec;
  spec.name = "flow-tsan";
  spec.n_luts = 600;
  spec.n_inputs = 400;
  spec.n_outputs = 300;
  spec.n_latches = 30;
  const Netlist nl = generate_netlist(spec);
  FlowOptions opt;
  opt.place.inner_num = 0.3;
  opt.route.timing_driven = true;  // delay model + delay lookahead too

  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    return run_flow(nl, opt);
  };
  const FlowResult serial = run(1);
  ASSERT_EQ(serial.placement.nx, 22u);
  ASSERT_EQ(serial.placement.ny, 22u);
  const FlowResult par = run(4);
  EXPECT_EQ(placement_checksum(serial.placement),
            placement_checksum(par.placement));
  EXPECT_EQ(routing_tree_checksum(serial.routing),
            routing_tree_checksum(par.routing));
  EXPECT_EQ(serial.routing.iterations, par.routing.iterations);
}

TEST(FlowTsan, LookaheadTablesAreThreadCountInvariant) {
  const ArchParams arch;
  const ElectricalView view = make_view(arch, "nem-opt");
  const DelayProfile prof{view.t_wire_stage, view.t_input_path};
  auto build = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    return std::make_unique<RouteLookahead>(arch, 22, 22, &prof);
  };
  const auto one = build(1);
  ASSERT_TRUE(one->has_delay_table());
  const std::size_t bytes = one->table_size() * sizeof(float);
  for (const std::size_t threads : {2u, 4u}) {
    const auto other = build(threads);
    ASSERT_EQ(other->table_size(), one->table_size());
    EXPECT_EQ(std::memcmp(one->table(), other->table(), bytes), 0)
        << threads << " threads";
    EXPECT_EQ(std::memcmp(one->delay_table(), other->delay_table(), bytes),
              0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace nemfpga
