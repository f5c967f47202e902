// Reference oracles: deliberately naive reimplementations of the optimized
// CAD kernels, for differential property testing (tests/prop/). Each
// oracle trades every optimization in the production kernel — scratch
// arenas, epoch stamps, incremental trackers, cost caches, thread pools —
// for the most transparent data structure that states the same algorithm
// (hash maps, full rescans, recursion, plain serial loops). The pairs are:
//
//   reference_route_all        vs  route_all        (bit-identical)
//   ReferenceOveruse           vs  OveruseTracker   (bit-identical)
//   reference_net_cost / reference_placement_cost
//                              vs  NetCostModel     (per-net bit-identical;
//                                  tracked total tolerance-bounded)
//   reference_anneal_step      vs  anneal_step      (bit-identical)
//   reference_analyze_timing   vs  analyze_timing   (tolerance-bounded)
//   reference_programming_yield vs programming_yield (bit-identical)
//   reference_sample_population_parallel
//                              vs  sample_population_parallel (bit-identical)
//
// See DESIGN.md "Verification" for why each pairing is exact or bounded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/variation.hpp"
#include "program/yield.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"

namespace nemfpga::verify {

/// Naive PathFinder: hash-map relaxation state, per-net containers
/// allocated fresh, full-rescan overuse counting and history updates.
/// Must agree bit-for-bit with route_all on trees, iterations, success,
/// overuse and wire census for any (graph, placement, options).
RoutingResult reference_route_all(const RrGraphView& g, const Placement& pl,
                                  const RouteOptions& opt = {});

/// Human-readable first difference between two routing results; empty
/// string when they agree exactly (checksum-level comparison plus field
/// diagnostics, so a prop failure names the diverging net).
std::string diff_routing(const RoutingResult& a, const RoutingResult& b);

/// From-scratch oracle for the ECO flow's touched-only packing refresh:
/// recompute every derived Packing field (BLE input lists, cluster
/// input/output net sets, net absorption) from the current netlist under
/// pack_netlist's exact derivation rules, with BLE and cluster membership
/// frozen to `base`'s — the ECO session invariant. reference_eco.cpp.
Packing reference_refresh_packing(const Netlist& nl, const Packing& base);

/// First difference between two packings (membership and derived fields);
/// empty string when identical.
std::string diff_packing(const Packing& a, const Packing& b);

/// Full-rescan occupancy/overuse bookkeeping (the classic PathFinder
/// iteration pass the incremental OveruseTracker replaces).
class ReferenceOveruse {
 public:
  explicit ReferenceOveruse(std::vector<std::uint16_t> capacities)
      : cap_(std::move(capacities)), occ_(cap_.size(), 0) {}

  void inc(std::size_t id) { ++occ_[id]; }
  void dec(std::size_t id) { --occ_[id]; }
  std::uint16_t occ(std::size_t id) const { return occ_[id]; }
  bool overused(std::size_t id) const { return occ_[id] > cap_[id]; }

  /// O(V) rescan, recomputed from scratch on every call.
  std::size_t overused_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < occ_.size(); ++i) {
      if (occ_[i] > cap_[i]) ++n;
    }
    return n;
  }

  /// Overused node ids in ascending id order (the rescan order).
  std::vector<std::size_t> overused_nodes() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < occ_.size(); ++i) {
      if (occ_[i] > cap_[i]) out.push_back(i);
    }
    return out;
  }

 private:
  std::vector<std::uint16_t> cap_;
  std::vector<std::uint16_t> occ_;
};

/// Recursive (memoized DFS) static timing analysis with map-based net
/// delay evaluation; agrees with the epoch-stamped analyze_timing within
/// tight floating-point tolerance (identical arc sums, identical maxima).
TimingResult reference_analyze_timing(const Netlist& nl, const Packing& pack,
                                      const Placement& pl, const RrGraph& g,
                                      const RoutingResult& routing,
                                      const ElectricalView& view);

/// Naive full-recompute router timing hook: the oracle twin of
/// make_incremental_sta. Every update() re-evaluates every net delay and
/// rebuilds arrival / downstream-delay arrays by memoized recursion with
/// the incremental pass's exact arc expressions, so criticality(),
/// critical_path() and worst_slack() must agree with the production hook
/// *bitwise* after any update sequence (incremental full-recompute
/// equivalence — pinned by tests/prop/prop_sta_incremental.cpp). Also
/// stateful; hand each router under differential test its own instance.
std::unique_ptr<RouterTimingHook> make_reference_sta(
    const Netlist& nl, const Packing& pack, const Placement& pl,
    const RrGraphView& g, const ElectricalView& view, double criticality_exp,
    double max_criticality);

/// Full-rescan bounding box of one placed net (driver plus sinks).
struct ReferenceNetBox {
  std::size_t x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
};
ReferenceNetBox reference_net_box(const PlacedNet& n,
                                  const std::vector<BlockLoc>& locs);

/// Full-rescan cost of one placed net: weight * q(pins) * semiperimeter,
/// the exact expression NetCostModel derives incrementally. Bit-identical
/// per net by construction (both read only the final integer box).
double reference_net_cost(const PlacedNet& n, double weight,
                          const std::vector<BlockLoc>& locs);

/// Full-rescan total placement cost under per-net weights, summed in net
/// order; NetCostModel's *tracked* total (rebuild sum plus one delta per
/// committed move) must stay within 1e-9 relative of this.
double reference_placement_cost(const std::vector<PlacedNet>& nets,
                                const std::vector<double>& weights,
                                const std::vector<BlockLoc>& locs);

/// Serial full-rescan transcription of one temperature step of the region
/// anneal (place.hpp anneal_step). Regions run one after another in region
/// order, each on a copy of the start locations in which only its own
/// blocks move. Every move is costed by rescanning each touched net before
/// and after, occupancy is a search over the locations, and the cut lines,
/// move shares and RNG streams are re-derived from the documented rules.
/// Deltas, counters and the merged locations must equal anneal_step's bit
/// for bit (tests/prop/prop_place_diff.cpp).
AnnealStepTrace reference_anneal_step(const Packing& p, const ArchParams& arch,
                                      const Placement& pl,
                                      const std::vector<double>& weights,
                                      std::uint64_t seed,
                                      const AnnealStep& step);

/// Plain serial Monte-Carlo yield loop (no thread pool, no deferred
/// reduction); the parallel programming_yield must match it bit-for-bit
/// at any thread count.
YieldResult reference_programming_yield(const RelayDesign& nominal,
                                        const VariationSpec& spec,
                                        std::size_t rows, std::size_t cols,
                                        std::size_t trials, Rng& rng,
                                        VoltagePolicy policy);

/// Serial equivalent of sample_population_parallel (one child stream per
/// index, drawn in a plain loop).
std::vector<RelaySample> reference_sample_population_parallel(
    const RelayDesign& nominal, const VariationSpec& spec, std::size_t n,
    Rng& rng);

}  // namespace nemfpga::verify
