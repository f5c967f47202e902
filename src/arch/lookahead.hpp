// Geometric routing lookahead for A* directed search (VPR-style "map
// lookahead"): a per-segment-class table of the expected remaining base
// cost from a signed tile offset (dx, dy) to a sink, built once per
// fabric + cost profile by sampled backward Dijkstra over the reverse
// graph. The router adds astar_factor * estimate to the heap key, which
// prunes wrong-direction wires and accounts for the segment-length
// quantisation a plain Manhattan heuristic cannot see.
//
// Admissibility (by construction, at astar_factor <= 1): the table stores
// shortest distances in *base-cost* space (route_base_cost below), and
// every run-time cost factor — history, the deterministic jitter, present
// congestion — multiplies the base cost by >= 1, so a base-space distance
// is a lower bound on the real remaining cost. The distances themselves
// are folded from one backward Dijkstra per sink tile over a thin
// canonical graph whose connectivity is a superset of any real channel
// width's (see the constructor), making each cell the exact minimum over
// every realizable (node, target) pair at that offset.
// RouteOptions::verify_lookahead and RouteCounters::lookahead_suboptimal
// prove the bound empirically on top: no sink is found worse than a
// zero-heuristic Dijkstra reference on the same cost state.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/rr_graph.hpp"

namespace nemfpga {

/// The router's base-cost profile, shared (single source of truth) by the
/// production router, the reference oracle and the lookahead builder.
inline double route_base_cost(const RrNode& n) {
  switch (n.type) {
    case RrType::kChanX:
    case RrType::kChanY:
      return static_cast<double>(n.length);
    case RrType::kIpin:
      return 0.95;  // slight pull toward finishing
    case RrType::kSink:
      return 0.0;
    default:
      return 1.0;
  }
}

/// Per-RR-node delay profile of the active electrical view, as consumed
/// by the delay-annotated lookahead table. src/timing/delay_model.hpp
/// derives it from an ElectricalView; arch cannot depend on timing, so
/// only the two constants cross the layer boundary.
struct DelayProfile {
  double t_wire_stage = 0.0;  ///< Delay entering any CHANX/CHANY node [s].
  double t_input_path = 0.0;  ///< Delay entering an IPIN [s].
};

/// The delay twin of route_base_cost: what entering `n` costs in seconds.
/// Single source of truth for the delay model, the timing-driven router
/// and the delay lookahead builder.
inline double route_delay_cost(const RrNode& n, const DelayProfile& p) {
  switch (n.type) {
    case RrType::kChanX:
    case RrType::kChanY:
      return p.t_wire_stage;
    case RrType::kIpin:
      return p.t_input_path;
    default:
      return 0.0;
  }
}

class RouteLookahead {
 public:
  /// Build the base-cost table; with a non-null `delay` profile also
  /// build the delay-annotated twin table (same thin canonical graph,
  /// same backward Dijkstras, node weights from route_delay_cost), which
  /// lower-bounds the remaining *delay* in seconds for the timing-driven
  /// router's blended heuristic. The same admissibility argument applies:
  /// thin connectivity supersets any real width, and rounding is always
  /// toward zero.
  ///
  /// The build reads only the fabric (arch, grid) — never a real graph —
  /// so it can run before or beside the real graph's construction.
  RouteLookahead(const ArchParams& arch, std::size_t nx, std::size_t ny,
                 const DelayProfile* delay = nullptr);
  /// The same table for the fabric `g` was built over.
  explicit RouteLookahead(const RrGraphView& g,
                          const DelayProfile* delay = nullptr)
      : RouteLookahead(g.arch(), g.nx(), g.ny(), delay) {}

  /// Expected remaining base cost from `n` (whose own cost is already
  /// paid) to a sink at tile (tx, ty). Convenience form for sink-order
  /// keys and the reference oracle; the hot loop uses the key-based
  /// accessors below.
  double estimate(const RrNode& n, int tx, int ty) const {
    return table_[static_cast<std::size_t>(node_key(n) +
                                           target_key(tx, ty))];
  }

  /// Per-node half of the table index: class plus reference-point offset,
  /// folded so that table()[node_key(n) + target_key(tx, ty)] is the
  /// estimate — one add and one load per relaxed edge. Pure geometry of
  /// the node, so one table serves every channel width of the same
  /// fabric (find_min_channel_width shares it across probes).
  std::int32_t node_key(const RrNode& n) const;

  /// Per-search half of the index (hoisted once per sink search).
  std::int32_t target_key(int tx, int ty) const {
    return (tx + off_x_) * sy_ + (ty + off_y_);
  }

  const float* table() const { return table_.data(); }
  /// Cells in table() (and in delay_table() when it is built).
  std::size_t table_size() const { return table_.size(); }

  /// Delay twin of the base table (empty unless built with a profile).
  /// Indexed identically: delay_table()[node_key(n) + target_key(tx, ty)]
  /// is a lower bound on the remaining seconds from `n` to the sink.
  bool has_delay_table() const { return !delay_table_.empty(); }
  const float* delay_table() const { return delay_table_.data(); }
  double delay_estimate(const RrNode& n, int tx, int ty) const {
    return delay_table_[static_cast<std::size_t>(node_key(n) +
                                                 target_key(tx, ty))];
  }

  double build_seconds() const { return build_s_; }

  /// Resident size, for the artifact cache's byte-budgeted eviction.
  std::size_t memory_bytes() const {
    return sizeof(RouteLookahead) +
           (table_.capacity() + delay_table_.capacity()) * sizeof(float);
  }

  /// Wire classes get direction-aware tables; everything else (pins,
  /// sources, sinks) shares the generic class.
  static constexpr int kClasses = 5;

 private:
  int sy_ = 0;           ///< Table stride in the dy dimension.
  int off_x_ = 0, off_y_ = 0;  ///< Offset bias so indices start at 0.
  std::size_t span_ = 0;           ///< sx * sy, one class's table slice.
  std::vector<float> table_;       ///< kClasses * sx * sy, row-major.
  std::vector<float> delay_table_; ///< Same layout, seconds (optional).
  double build_s_ = 0.0;
};

}  // namespace nemfpga
