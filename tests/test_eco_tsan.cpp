// ThreadSanitizer coverage for ECO reroutes on the shared pool: an
// EcoFlow session whose seeded route_incremental sessions run the
// net-parallel (batched) scheduler with 8 workers. Workers search against
// an immutable cost snapshot and commit serially, and the ECO layers
// around them (packing refresh, splice, local re-place, cached-delay STA)
// are strictly serial — so the whole replay must be bit-identical at 1, 2
// and 8 threads. Under -DNF_TSAN=ON this certifies the no-race contract;
// in a plain build it is a fast determinism smoke. Matches the
// test_*_tsan pattern (test_route_tsan, test_route_implicit_tsan).
#include <gtest/gtest.h>

#include <vector>

#include "flow/eco.hpp"
#include "netlist/mcnc.hpp"
#include "util/thread_pool.hpp"
#include "verify/oracles.hpp"

namespace nemfpga {
namespace {

/// A deterministic three-delta edit session: pin retargets on the first
/// wide LUT, an explicit block move to the first free core site, and a
/// swap of two logic blocks. Derived from the flow state, so every
/// thread-count replay sees identical deltas.
std::vector<NetlistDelta> session_deltas(const EcoFlow& flow) {
  std::vector<NetlistDelta> deltas;
  const Netlist& nl = flow.netlist();

  BlockId lut = kInvalidId;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    if (nl.block(b).type == BlockType::kLut &&
        nl.block(b).inputs.size() >= 2) {
      lut = b;
      break;
    }
  }
  if (lut != kInvalidId) {
    NetlistDelta d;
    const NetId cur = nl.block(lut).inputs[0];
    d.ops.push_back(EcoOp::retarget(lut, 0, cur == 0 ? 1 : 0));
    d.ops.push_back(EcoOp::retarget(lut, 1, cur));
    deltas.push_back(std::move(d));
  }

  for (std::size_t y = 1; y <= flow.ny(); ++y) {
    for (std::size_t x = 1; x <= flow.nx(); ++x) {
      bool occ = false;
      for (const BlockLoc& l : flow.placement().locs) {
        occ = occ || (l.x == x && l.y == y && l.sub == 0);
      }
      if (!occ) {
        NetlistDelta d;
        d.ops.push_back(EcoOp::move_block(0, x, y, 0));
        deltas.push_back(std::move(d));
        y = flow.ny() + 1;  // done
        break;
      }
    }
  }

  if (flow.packing().clusters.size() >= 2) {
    NetlistDelta d;
    d.ops.push_back(EcoOp::swap_blocks(0, 1));
    deltas.push_back(std::move(d));
  }
  return deltas;
}

TEST(EcoTsan, ConcurrentRerouteIsRaceFreeAndThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    EcoOptions opt;
    opt.arch.W = 48;
    opt.route.net_parallel = true;
    opt.place.inner_num = 0.3;
    EcoFlow flow(generate_benchmark("tseng"), opt);
    EXPECT_TRUE(flow.routed());
    // The base compile already ran concurrent batches on the pool.
    EXPECT_GT(flow.routing().counters.batches, 0u);

    struct Out {
      std::vector<EcoStatus> statuses;
      std::uint64_t batches = 0;
      RoutingResult routing;
      double cp = 0.0;
    };
    Out out;
    for (const NetlistDelta& d : session_deltas(flow)) {
      const EcoResult r = flow.apply(d);
      out.statuses.push_back(r.status);
      EXPECT_EQ(r.status, EcoStatus::kOk);
      EXPECT_TRUE(r.legal);
      out.batches += flow.routing().counters.batches;
    }
    out.routing = flow.routing();
    out.cp = flow.critical_path_s();
    return out;
  };

  const auto o1 = run(1);
  const auto o2 = run(2);
  const auto o8 = run(8);

  ASSERT_EQ(o1.statuses.size(), 3u);
  for (const auto* o : {&o2, &o8}) {
    EXPECT_EQ(o->statuses, o1.statuses);
    EXPECT_EQ(o->batches, o1.batches);  // identical schedules
    const std::string d = verify::diff_routing(o->routing, o1.routing);
    EXPECT_EQ(d, "") << d;
    EXPECT_EQ(o->cp, o1.cp);  // bitwise, not tolerance
  }
}

}  // namespace
}  // namespace nemfpga
