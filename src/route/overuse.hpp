// Incremental occupancy / overuse bookkeeping for the PathFinder router.
// The classic implementation rescans every RR node each iteration to count
// overuse and bump history costs; this tracker keeps an exact running
// count and a lazily-compacted list of the currently-overused nodes,
// updated O(1) on every occupancy change, so those passes touch only the
// congested fraction of the graph. Exposed as its own header so the
// consistency invariants can be unit-tested directly
// (tests/test_route_golden.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "arch/rr_graph.hpp"

namespace nemfpga {

class OveruseTracker {
 public:
  explicit OveruseTracker(const RrGraphView& g) {
    std::vector<std::uint16_t> cap(g.node_count());
    for (RrNodeId i = 0; i < g.node_count(); ++i) cap[i] = g.node(i).capacity;
    init(std::move(cap));
  }

  /// Capacity-vector constructor for unit tests.
  explicit OveruseTracker(std::vector<std::uint16_t> capacities) {
    init(std::move(capacities));
  }

  std::size_t size() const { return occ_.size(); }
  std::uint16_t occ(RrNodeId id) const { return occ_[id]; }
  std::uint16_t capacity(RrNodeId id) const { return cap_[id]; }
  bool overused(RrNodeId id) const { return over_[id] != 0; }

  /// Exact number of currently-overused nodes; O(1).
  std::size_t overused_count() const { return n_over_; }

  /// Raw views for the router's relaxation loop.
  const std::uint16_t* occ_data() const { return occ_.data(); }
  const std::uint16_t* cap_data() const { return cap_.data(); }

  void inc(RrNodeId id) {
    ++occ_[id];
    if (!over_[id] && occ_[id] > cap_[id]) {
      over_[id] = 1;
      ++n_over_;
      if (!in_list_[id]) {
        in_list_[id] = 1;
        list_.push_back(id);
      }
    }
  }

  void dec(RrNodeId id) {
    --occ_[id];
    if (over_[id] && occ_[id] <= cap_[id]) {
      over_[id] = 0;
      --n_over_;
      // The list entry is dropped lazily at the next for_each_overused.
    }
  }

  /// Visit every currently-overused node exactly once as f(id, overuse),
  /// compacting the lazy list in place. Visit order is the order nodes
  /// first became overused (deterministic for a given operation sequence);
  /// callers must not depend on it beyond that.
  template <typename F>
  void for_each_overused(F&& f) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < list_.size(); ++r) {
      const RrNodeId id = list_[r];
      if (over_[id]) {
        f(id, static_cast<int>(occ_[id]) - static_cast<int>(cap_[id]));
        list_[w++] = id;
      } else {
        in_list_[id] = 0;
      }
    }
    list_.resize(w);
  }

  /// O(V) ground truth, for tests: does the incremental state agree with
  /// a full recount?
  bool consistent() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < occ_.size(); ++i) {
      const bool over = occ_[i] > cap_[i];
      if (over != (over_[i] != 0)) return false;
      if (over) ++n;
      if (over && !in_list_[i]) return false;  // overused ⇒ listed
    }
    return n == n_over_;
  }

 private:
  void init(std::vector<std::uint16_t> capacities) {
    cap_ = std::move(capacities);
    occ_.assign(cap_.size(), 0);
    over_.assign(cap_.size(), 0);
    in_list_.assign(cap_.size(), 0);
    list_.reserve(64);
  }

  std::vector<std::uint16_t> occ_;
  std::vector<std::uint16_t> cap_;
  std::vector<std::uint8_t> over_;     ///< occ > cap, maintained exactly.
  std::vector<std::uint8_t> in_list_;  ///< id present in list_ (lazy).
  std::vector<RrNodeId> list_;         ///< Superset of overused nodes.
  std::size_t n_over_ = 0;
};

}  // namespace nemfpga
