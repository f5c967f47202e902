// VPR-style simulated-annealing placement: wirelength-driven (bounding-box
// with the standard fanout correction), adaptive temperature schedule and
// range-limited swap moves. Logic clusters occupy the nx-by-ny grid; IO
// blocks occupy perimeter pad slots.
//
// NetCostModel holds the per-net bounding boxes. The annealer rescans the
// touched nets in place with an undo log (apply_swap / undo_swap); the
// non-mutating propose()/commit() pair, with per-edge pin counts that
// evaluate a move in O(1) per touched net, serves the ECO flow.
//
// Each temperature step splits the grid into regions in the style of
// Ludwin and Betz, "Efficient and Deterministic Parallel Placement for
// FPGAs" (TODAES 2011). A region is at least kAnnealRegionSide logic
// sites on each side, so the region count is a pure function of the grid
// size: grids below 20 sites wide are one region, the 22x22 grids of
// frisc and pdc are 2x2. The regions anneal concurrently on
// ThreadPool::current(), each on its own RNG stream and against a frozen
// copy of the other regions' locations; a barrier merges them and
// re-derives every box. The cut lines move every step so blocks cross
// region borders over the anneal. One region is the plain serial sweep on
// the placement's own stream, so the result is bit-identical at any
// thread count either way.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/params.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "util/rng.hpp"

namespace nemfpga {

/// Location of a packed block: grid cell plus pad sub-slot (IO only).
struct BlockLoc {
  std::size_t x = 0;
  std::size_t y = 0;
  std::size_t sub = 0;
};

/// A routable net at the placement/routing level: driver block and sink
/// blocks (packed-block indices), with the originating netlist net.
struct PlacedNet {
  NetId net = kInvalidId;
  std::size_t driver = kInvalidId;
  std::vector<std::size_t> sinks;
};

/// Work counters for one place() call (always on; the bench harness and
/// the determinism tests read them).
struct PlaceCounters {
  std::uint64_t proposed = 0;  ///< Moves drawn, incl. degenerate no-ops.
  std::uint64_t accepted = 0;  ///< Moves committed.
  std::uint64_t rescans = 0;   ///< Incremental-edge-collapse full rescans.
};

struct Placement {
  std::size_t nx = 0, ny = 0;
  std::vector<BlockLoc> locs;   ///< Per packed block.
  std::vector<PlacedNet> nets;  ///< Inter-block nets to route.
  /// Unweighted bounding-box cost after annealing (always comparable to
  /// placement_cost(), including after a timing-driven run).
  double final_cost = 0.0;
  /// Criticality-weighted cost the timing-driven anneal actually
  /// minimized; equals final_cost when timing_driven is off.
  double final_weighted_cost = 0.0;
  PlaceCounters counters;
};

/// The default schedule: inner_num 1.15, a start temperature of one
/// std-dev of random-move deltas, and an exit temperature taken from the
/// cost at anneal entry; in between, VPR's adaptive alpha and range
/// limiter. It proposes about half the moves of VPR's inner_num 2.0 and
/// 20-std-dev start, for a bounding-box cost about 1% higher
/// (EXPERIMENTS.md, "Anneal schedule").
struct PlaceOptions {
  double inner_num = 1.15;  ///< Moves per temperature ~ inner_num * n^(4/3).
  std::uint64_t seed = 1;
  /// Timing-driven mode (VPR-style): after the wirelength anneal, net
  /// criticalities are estimated from a placement-based delay model and a
  /// second, criticality-weighted anneal runs at medium temperature.
  bool timing_driven = false;
  /// Weight emphasis for critical nets: w = 1 + timing_weight * crit^2.
  double timing_weight = 4.0;
};

/// Incremental bounding-box net-cost engine. Owns per-net boxes with
/// min/max edge-occupancy counts so moving a block updates each touched
/// net in O(1) unless the last pin on a bounding edge moves inward (then
/// one full rescan re-derives the edge). propose() evaluates a move
/// against the committed state without mutating it; commit() applies a
/// pending evaluation. Net costs are derived from the final integer box
/// coordinates only, so the incremental and full-scan derivations are
/// bit-identical — the differential suite in tests/prop/prop_place_diff
/// pins this against the naive oracle in src/verify/reference_place.cpp.
///
/// The PlacedNet list must outlive the model, have unique pins per net
/// (driver not repeated in sinks) and sorted sink lists — exactly what
/// extract_placed_nets produces.
class NetCostModel {
 public:
  /// Packed to 24 bytes (16 bytes of geometry + the cost) so the hot
  /// boxes_ array stays cache-resident; grids and fanouts far exceed
  /// 16-bit range long before placement is the bottleneck.
  struct Box {
    std::uint16_t x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
    /// Pins currently sitting on each bounding edge; a pin of a
    /// degenerate (lo == hi) axis counts on both edges.
    std::uint16_t on_x_lo = 0, on_x_hi = 0, on_y_lo = 0, on_y_hi = 0;
    double cost = 0.0;
  };
  struct PendingNet {
    std::size_t net = 0;
    Box box;
  };
  /// One evaluated proposal: the nets whose box record actually changes
  /// (touched nets whose geometry and edge counts are unaffected — e.g.
  /// a pin moving strictly inside the box — are exact-zero contributions
  /// and are omitted), the summed cost delta, and how many evaluations
  /// fell back to a full rescan. Reusable scratch — clear() keeps
  /// capacity.
  struct Pending {
    std::vector<PendingNet> nets;
    double delta = 0.0;
    std::uint64_t rescans = 0;
    void clear() {
      nets.clear();
      delta = 0.0;
      rescans = 0;
    }
  };

  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  NetCostModel(const std::vector<PlacedNet>* nets, std::size_t n_blocks);

  /// Replace the per-net weights (timing-driven criticality emphasis);
  /// must be followed by rebuild() to re-derive box costs.
  void set_weights(std::vector<double> w);

  /// Recompute every box and the total cost from scratch.
  void rebuild(const std::vector<BlockLoc>& locs);

  /// Tracked total cost: rebuild()'s sum plus one += delta per commit —
  /// the same accumulation the seed annealer performed.
  double total_cost() const { return cost_; }

  /// Unweighted bounding-box cost from the committed boxes, summed in
  /// net order (placement_cost()'s definition).
  double unweighted_cost() const;

  const Box& box(std::size_t net) const { return boxes_[net]; }
  double weight(std::size_t net) const { return weight_[net]; }
  std::size_t net_count() const { return nets_->size(); }

  /// Nets touching a block, ascending by net index.
  const std::vector<std::size_t>& nets_of(std::size_t block) const {
    return block_nets_[block];
  }

  /// Visit every net touching block a and/or block b exactly once, in
  /// the canonical evaluation order (a's nets ascending, then b's nets
  /// not shared with a, ascending) as f(net, moves_a, moves_b). A merge
  /// over the two sorted lists — no per-net membership search — in the
  /// order whose floating-point accumulation propose() must reproduce.
  template <typename F>
  void for_each_touched(std::size_t a, std::size_t b, F&& f) const {
    const std::vector<std::size_t>& la = block_nets_[a];
    if (b == kNoBlock) {
      for (std::size_t n : la) f(n, true, false);
      return;
    }
    const std::vector<std::size_t>& lb = block_nets_[b];
    std::size_t j = 0;
    for (std::size_t n : la) {
      while (j < lb.size() && lb[j] < n) ++j;
      f(n, true, j < lb.size() && lb[j] == n);
    }
    std::size_t i = 0;
    for (std::size_t n : lb) {
      while (i < la.size() && la[i] < n) ++i;
      if (i < la.size() && la[i] == n) continue;  // shared: visited above
      f(n, false, true);
    }
  }

  /// Evaluate moving block a to new_a and (if b != kNoBlock) block b to
  /// new_b against the committed state, filling `out` and returning the
  /// cost delta. Does not mutate the model. `locs` are the committed
  /// locations. Edge counts must be valid: call after rebuild(), not
  /// after apply_swap() (which leaves them zero).
  double propose(const std::vector<BlockLoc>& locs, std::size_t a,
                 const BlockLoc& new_a, std::size_t b, const BlockLoc& new_b,
                 Pending& out) const;

  /// The seed annealer's kernel: full O(pins) rescan of every touched
  /// net. Bit-identical delta to propose(); the per-move oracle of
  /// tests/prop/prop_place_diff.
  double propose_naive(const std::vector<BlockLoc>& locs, std::size_t a,
                       const BlockLoc& new_a, std::size_t b,
                       const BlockLoc& new_b, Pending& out) const;

  /// Apply an evaluated proposal: store the new boxes, cost += delta.
  void commit(const Pending& p);

  /// The serial fast path, mirroring the seed annealer's do_swap: move
  /// block a to `dest` (and b, if given, to a's old site) in `locs`,
  /// rescan every touched net in place, and return the cost delta. The
  /// displaced box records are appended to `undo` so a rejected move
  /// can be reversed with undo_swap() — a bitwise restore, where the
  /// seed paid a full second rescan of every touched net. The tracked
  /// total is NOT updated — the caller books the delta with
  /// book_delta() on accept. Shared nets are rescanned once per block;
  /// the second visit sees the already-stored box and contributes an
  /// exact +0.0, which keeps the delta bit-identical to propose()'s
  /// shared-net-once accumulation.
  double apply_swap(std::vector<BlockLoc>& locs, std::size_t a,
                    const BlockLoc& dest, std::size_t b, Pending& undo);

  /// Reverse a rejected apply_swap: put a back at `src` (and b back at
  /// `dest`, a's proposed target, which was b's home), and restore the
  /// displaced boxes in reverse log order — a net touched by both
  /// blocks appears twice, and the reverse walk ends on its original
  /// record. Leaves model and locations bit-identical to before the
  /// apply_swap; the tracked total was never touched.
  void undo_swap(std::vector<BlockLoc>& locs, std::size_t a,
                 const BlockLoc& src, std::size_t b, const BlockLoc& dest,
                 const Pending& undo);

  /// Fold an accepted apply_swap delta into the tracked total — the
  /// same one += per accepted move the seed annealer performed.
  void book_delta(double d) { cost_ += d; }

  /// Take over the boxes and tracked total of `from`, a model over the
  /// same nets and weights: how an anneal region re-synchronises its
  /// private box records at a barrier without copying the net lists.
  void adopt_boxes(const NetCostModel& from) {
    boxes_ = from.boxes_;
    cost_ = from.cost_;
  }

 private:
  Box scan_box(const PlacedNet& n, const std::vector<BlockLoc>& locs,
               std::size_t a, const BlockLoc& new_a, std::size_t b,
               const BlockLoc& new_b) const;
  void finish_cost(Box& box, std::size_t net) const;

  const std::vector<PlacedNet>* nets_;
  std::vector<double> weight_;
  /// weight_[n] * q_factor(pins(n)) precomputed: finish_cost() is then
  /// one multiply with no PlacedNet access. (w * q) * span associates
  /// exactly as the seed's w * q * span, so costs stay bit-identical.
  std::vector<double> wq_;
  std::vector<std::vector<std::size_t>> block_nets_;
  std::vector<Box> boxes_;
  double cost_ = 0.0;
};

/// The placed view of one netlist net: driver + deduped, sorted sink
/// packed-blocks; nullopt when the net is absorbed or fully local and so
/// never reaches the router. extract_placed_nets is a scan of this over
/// ascending NetId, which is the equivalence the ECO flow relies on to
/// splice individual entries incrementally and stay bitwise-identical to
/// a from-scratch extraction.
std::optional<PlacedNet> make_placed_net(const Netlist& nl, const Packing& p,
                                         NetId n);

/// Extract the inter-block nets (driver + sinks over packed blocks) that
/// placement optimizes and routing must realize.
std::vector<PlacedNet> extract_placed_nets(const Netlist& nl, const Packing& p);

/// Placement-based net criticality estimate (no routing required): the
/// longest combinational path where a net's delay is its bounding-box
/// semiperimeter, shaped into 1 - slack / d_max per placed net. Shared by
/// the timing-driven placement anneal (criticality-weighted net weights)
/// and the router's incremental STA, which seeds its iteration-1
/// criticalities from it before any routed trees exist
/// (src/timing/sta.cpp). Result is parallel to `nets`, each entry in
/// [0, 1]. LUTs trapped in combinational cycles never drain from the
/// topological pass; they are detected afterwards, warned about once on
/// stderr, and every net touching one falls back to zero-slack (fully
/// critical) shaping instead of silently reporting arrival 0.
std::vector<double> placement_net_criticality(
    const Netlist& nl, const std::vector<PlacedNet>& nets,
    const std::vector<BlockLoc>& locs);

/// Smallest side of an anneal region, in logic sites.
inline constexpr std::size_t kAnnealRegionSide = 8;

/// Regions along a grid axis of n logic sites: as many as keep every
/// region at least kAnnealRegionSide wide while the cut lines swing by at
/// least two sites either way, so 1 below n = 20 and 2 from 20 to 27.
std::size_t anneal_regions_per_axis(std::size_t n);

/// One temperature step of the region anneal, for the differential test
/// against src/verify/reference_place.cpp.
struct AnnealStep {
  std::size_t index = 0;  ///< Step number: sets the cut lines and streams.
  double t = 1.0;         ///< Temperature.
  double range = 1e9;     ///< Range-limiter window, in sites.
  std::size_t moves = 0;  ///< Moves over all regions.
};

/// What one step did: the merged locations, its counters, and the cost
/// delta of every evaluated (non-degenerate) move, per region in order.
struct AnnealStepTrace {
  std::vector<BlockLoc> locs;
  PlaceCounters counters;
  std::vector<std::vector<double>> deltas;
};

/// Run one step of place()'s anneal from `pl` under per-net `weights`
/// (parallel to pl.nets, which must be extract_placed_nets' list). With
/// one region the step draws from Rng(seed), as place() does from
/// PlaceOptions::seed; with more, region r draws from the stream derived
/// from (seed, step.index, r).
AnnealStepTrace anneal_step(const Packing& p, const ArchParams& arch,
                            const Placement& pl,
                            const std::vector<double>& weights,
                            std::uint64_t seed, const AnnealStep& step);

/// Anneal a placement on an nx-by-ny logic grid (IO pads on the border).
/// Grid must fit: nx*ny >= #clusters and perimeter capacity >= #IO blocks.
Placement place(const Netlist& nl, const Packing& p, const ArchParams& arch,
                std::size_t nx, std::size_t ny, const PlaceOptions& opt = {});

/// Total bounding-box wirelength cost of a placement (for tests/reports).
double placement_cost(const Placement& pl);

/// Validation: every block placed on a legal, non-overlapping site.
void check_placement(const Packing& p, const ArchParams& arch,
                     const Placement& pl);

}  // namespace nemfpga
