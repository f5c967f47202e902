// ThreadSanitizer coverage for the router's cross-thread surfaces that the
// Wmin search leans on: concurrent width probes on a 4-thread pool, whose
// stop tokens the scheduler raises while they route, and a stop token
// raised from another thread mid-run. In a plain build these are quick
// functional checks; in an NF_TSAN build (cmake -DNF_TSAN=ON) TSan must
// stay silent.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

struct SmallDesign {
  ArchParams arch;
  Placement pl;

  explicit SmallDesign(const char* name) {
    SynthSpec spec;
    spec.name = name;
    spec.n_luts = 150;
    spec.n_inputs = 16;
    spec.n_outputs = 12;
    spec.n_latches = 12;
    const Netlist nl = generate_netlist(spec);
    arch.W = 40;
    const Packing pk = pack_netlist(nl, arch);
    const auto [nx, ny] =
        grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
    PlaceOptions popt;
    popt.inner_num = 0.3;
    pl = place(nl, pk, arch, nx, ny, popt);
  }
};

TEST(RouteWminTsan, FourThreadSearchIsRaceFreeAndMatchesSerial) {
  const SmallDesign d("wmin-tsan");
  ChannelWidthResult serial, wide;
  {
    ThreadPool one(1);
    ThreadPool::ScopedUse use(one);
    serial = find_min_channel_width(d.arch, d.pl, 8);
  }
  {
    ThreadPool four(4);
    ThreadPool::ScopedUse use(four);
    wide = find_min_channel_width(d.arch, d.pl, 8);
  }
  ASSERT_TRUE(serial.feasible);
  EXPECT_EQ(wide.feasible, serial.feasible);
  EXPECT_EQ(wide.w_min, serial.w_min);
  EXPECT_EQ(wide.w_low_stress, serial.w_low_stress);
}

/// Timing hook that does no timing: at the start of PathFinder iteration
/// `at` it lets a raiser thread go and waits until that thread has raised
/// the stop token, so the raise lands mid-run at a known iteration while
/// the router thread keeps running.
class RaiseStopAt : public RouterTimingHook {
 public:
  RaiseStopAt(std::size_t nodes, std::size_t at, std::atomic<bool>& go,
              const std::atomic<bool>& stop)
      : delay_(nodes, 1e-11), at_(at), go_(go), stop_(stop) {}
  const double* node_delay() const override { return delay_.data(); }
  double sec_per_base() const override { return 1e-10; }
  DelayProfile delay_profile() const override { return {1e-11, 1e-11}; }
  void update(const RrGraphView&, const std::vector<RouteTree>&,
              const std::vector<std::size_t>&,
              std::size_t iteration) override {
    if (iteration != at_) return;
    go_.store(true);
    while (!stop_.load()) std::this_thread::yield();
  }
  double criticality(std::size_t, std::size_t) const override { return 0; }
  double critical_path() const override { return 0; }
  double worst_slack() const override { return 0; }
  std::uint64_t net_evals() const override { return 0; }
  std::uint64_t block_updates() const override { return 0; }

 private:
  std::vector<double> delay_;
  std::size_t at_;
  std::atomic<bool>& go_;
  const std::atomic<bool>& stop_;
};

TEST(RouteWminTsan, StopRaisedFromAnotherThreadStopsTheRun) {
  const SmallDesign d("stop-tsan");
  ArchParams narrow = d.arch;
  narrow.W = 12;  // far below this design's Wmin: no early success
  const RrGraph g(narrow, d.pl.nx, d.pl.ny);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  RaiseStopAt hook(g.node_count(), 3, go, stop);
  RouteOptions opt;
  opt.timing_driven = true;
  opt.timing_hook = &hook;
  opt.stop = &stop;
  std::thread raiser([&] {
    while (!go.load()) std::this_thread::yield();
    stop.store(true);
  });
  const RoutingResult r = route_all(g, d.pl, opt);
  go.store(true);  // lets the raiser finish if the run ended early
  raiser.join();
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.success);
  // Raised during iteration 3, seen at the top of iteration 4.
  EXPECT_EQ(r.iterations, 3u);
}

}  // namespace
}  // namespace nemfpga
