#include "route/route.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "arch/lookahead.hpp"
#include "route/overuse.hpp"
#include "route/width_search.hpp"
#include "util/thread_pool.hpp"
#include "verify/check.hpp"

namespace nemfpga {
namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The lookahead weight scales every heuristic evaluation; zero, negative
/// or non-finite weights have no meaning for the search.
void require_valid_astar_factor(double f) {
  if (!std::isfinite(f) || f <= 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "RouteOptions::astar_factor must be finite and > 0 (got %g)",
                  f);
    throw std::invalid_argument(buf);
  }
}

// Allocation-free PathFinder search core with an A* geometric lookahead
// (src/arch/lookahead.hpp) and deterministic net-level parallelism.
//
// All mutable search state is split in two:
//  - Router owns everything shared across nets: the occupancy tracker and
//    its HotNode mirror, history costs, the per-iteration cost cache and
//    the lookahead table. During a parallel batch this state is
//    *read-only*; occupancy changes are applied serially at commit time.
//  - Scratch owns everything one in-flight net needs: the relaxation
//    array, the heap, tree/path buffers. Worker threads check scratch
//    arenas out of a free list, so the steady-state net loop performs
//    zero heap allocations regardless of the thread count
//    (RouteCounters::scratch_grows counts per-arena warm-up growth).
//
// Both schedulers (serial and batched net_parallel) are bit-identical to
// the straightforward transcription in src/verify/reference_route.cpp:
// same heap algorithm and comparator, same relaxation epsilons, same
// tie-breaking jitter, same occupancy sequencing (prop_route_diff). The
// default golden fixtures in tests/test_route_golden.cpp pin Wmin and
// whole-suite tree checksums at 1 and 8 threads.
struct Router {
  const RrGraphView g;  ///< Backend-dispatch view (two pointers, by value).
  const Placement& pl;
  const RouteOptions& opt;

  OveruseTracker occ;
  std::vector<float> history;
  double pres_fac;

  /// route_base_cost per node (immutable for a given graph).
  std::vector<double> base_cost;

  /// A* lookahead table: either the caller-provided shared table
  /// (RouteOptions::lookahead) or one built here on demand.
  std::shared_ptr<const RouteLookahead> la;

  /// Timing-driven state (all null/zero in congestion-only mode, whose
  /// hot-loop expressions then carry no timing terms).
  RouterTimingHook* const timing;    ///< Non-null iff timing-driven.
  const double* node_delay = nullptr;  ///< Per-node entering delay [s].
  double spb = 0.0;                  ///< Seconds per unit base cost.
  /// Delay half of the lookahead (null when the shared table was built
  /// without a profile — the heuristic then degrades to the congestion
  /// half alone, which is still admissible, just less directed).
  const float* delay_tab = nullptr;

  /// Everything the relaxation loop reads about a candidate node, packed
  /// into one 32-byte record so an edge costs one data-cache touch
  /// instead of six scattered array loads: the bounding-box coords and
  /// sink flag (immutable), a mirror of the occupancy/capacity pair
  /// (updated through inc_occ/dec_occ), the folded lookahead index, and
  /// the per-iteration cost cache base * (1 + history) * jitter — leaving
  /// one multiply for the present-congestion factor instead of a type
  /// switch + hash + three multiplies per edge.
  struct HotNode {
    std::uint16_t x_lo, x_hi, y_lo, y_hi;
    std::uint16_t occ, cap;
    std::uint16_t is_sink;
    std::uint16_t pad = 0;
    std::int32_t la_key;  ///< RouteLookahead::node_key (0 without table).
    std::uint32_t pad2 = 0;
    double cost;
  };
  static_assert(sizeof(HotNode) == 32);
  std::vector<HotNode> hot;

  // Per-sink-search relaxation state, epoch-stamped to avoid O(V) clears
  // and packed per node for the same one-touch reason as HotNode. The
  // ov_* fields are a second, independently-stamped channel: the
  // occupancy *overlay* — increments the net being routed has already
  // claimed for its own tree (earlier sinks), which are deliberately not
  // applied to the shared HotNode mirror until the net commits. ov_epoch
  // is keyed by Scratch::ov_cur (one epoch per route attempt), so the
  // overlay survives the per-sink cur_epoch bumps. Relaxation updates
  // must therefore write path_cost/epoch/prev field-wise, never by
  // aggregate assignment, or they would wipe the overlay.
  struct RelaxNode {
    double path_cost;
    std::uint32_t epoch;
    RrNodeId prev;
    std::uint32_t ov_epoch;
    std::uint16_t ov_add;
    std::uint16_t pad = 0;
  };
  static_assert(sizeof(RelaxNode) == 24);

  struct QItem {
    double cost;
    double known;
    RrNodeId node;
    bool operator>(const QItem& o) const { return cost > o.cost; }
  };

  /// Per-in-flight-net search state. One arena per concurrently-routing
  /// net; serial runs use a single arena for the whole routing.
  struct Scratch {
    std::vector<RelaxNode> relax;
    std::uint32_t cur_epoch = 0;  ///< One per sink search.
    std::uint32_t ov_cur = 0;     ///< One per route attempt (overlay).

    // Per-net membership marks (tree membership dedup).
    std::vector<std::uint32_t> mark;
    std::uint32_t mark_cur = 0;

    // Reusable per-net buffers.
    std::vector<QItem> heap;
    std::vector<RrNodeId> sink_nodes;
    std::vector<double> sink_keys;
    std::vector<double> sink_crit;  ///< Timing mode only.
    std::vector<std::uint32_t> order;
    std::vector<RrNodeId> tree_nodes;
    /// Timing mode only: delay from the net source to each current tree
    /// node (indexed by RR node; valid for marked tree nodes). Allocated
    /// lazily on the first timing-driven net so congestion-only scratch
    /// footprints are untouched.
    std::vector<double> node_tdel;
    std::vector<std::pair<RrNodeId, RrNodeId>> path;
    /// Edge materialization buffer for the implicit RR backend
    /// (RrGraphView::edges); untouched by the explicit backend. Reserved
    /// past the worst-case out-degree so it never grows in the loop.
    std::vector<RrEdge> edge_buf;

    /// Work done through this arena; summed into the routing totals.
    RouteCounters cnt;

    Scratch(std::size_t n, std::size_t edge_reserve) {
      relax.assign(n, RelaxNode{0.0, 0, kNoRrNode, 0, 0, 0});
      mark.assign(n, 0);
      // Warm the arena so even the first nets rarely grow it.
      heap.reserve(4096);
      sink_nodes.reserve(256);
      sink_keys.reserve(256);
      sink_crit.reserve(256);
      order.reserve(256);
      tree_nodes.reserve(1024);
      path.reserve(512);
      edge_buf.reserve(edge_reserve);
    }

    std::size_t capacity() const {
      return heap.capacity() + sink_nodes.capacity() + sink_keys.capacity() +
             sink_crit.capacity() + order.capacity() + tree_nodes.capacity() +
             node_tdel.capacity() + path.capacity();
    }

    // Binary min-heap over the persistent buffer — the exact algorithm
    // std::priority_queue runs, without its per-search container churn.
    // (A 4-ary hole-sifting variant was measured here; it resolves
    // exact-cost ties in a different order than std::pop_heap, which
    // perturbs the routing and violates the bit-identity contract the
    // golden tests pin, so the std algorithms stay.)
    void heap_push(QItem item) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      ++cnt.heap_pushes;
    }
    QItem heap_pop() {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const QItem item = heap.back();
      heap.pop_back();
      ++cnt.heap_pops;
      return item;
    }
  };

  // Scratch arenas are checked out per in-flight net. Lazily grown so a
  // serial run (and the nested-serial Wmin probes) allocates exactly one.
  std::vector<std::unique_ptr<Scratch>> scratches;
  std::vector<Scratch*> free_scratches;
  std::mutex scratch_mu;

  // Serial-only marks (rip-up dedup, batch conflict marks, wire census) —
  // never touched from worker threads.
  std::vector<std::uint32_t> smark;
  std::uint32_t smark_cur = 0;
  std::vector<std::uint32_t> bmark;
  std::uint32_t bmark_cur = 0;

  std::size_t iteration = 1;
  /// Router-level counters (serial bookkeeping + wall times); totals add
  /// the per-arena counters on top.
  RouteCounters cnt;

  /// Worst-case node out-degree bound, for Scratch::edge_buf.
  std::size_t edge_reserve = 0;

  explicit Router(const RrGraphView& graph, const Placement& placement,
                  const RouteOptions& options)
      : g(graph), pl(placement), opt(options), occ(graph),
        timing(options.timing_driven ? options.timing_hook : nullptr) {
    if (opt.lookahead) {
      la = opt.lookahead;  // shared: width probes / artifact cache
      cnt.t_lookahead_build_s = opt.lookahead_build_s;
      cnt.lookahead_cached = opt.lookahead_from_cache ? 1 : 0;
    } else if (timing) {
      // Delay-annotated table so directed search stays admissible in
      // the blended (seconds) cost space.
      const DelayProfile prof = timing->delay_profile();
      la = std::make_shared<const RouteLookahead>(g, &prof);
      cnt.t_lookahead_build_s = la->build_seconds();
    } else {
      la = std::make_shared<const RouteLookahead>(g);
      cnt.t_lookahead_build_s = la->build_seconds();
    }
    if (timing) {
      node_delay = timing->node_delay();
      spb = timing->sec_per_base();
      if (la->has_delay_table()) delay_tab = la->delay_table();
    }
    const std::size_t n = g.node_count();
    history.assign(n, 0.0f);
    base_cost.resize(n);
    hot.resize(n);
    for (RrNodeId i = 0; i < n; ++i) {
      const RrNode nd = g.node(i);
      base_cost[i] = route_base_cost(nd);
      hot[i] = {nd.x_lo,
                nd.x_hi,
                nd.y_lo,
                nd.y_hi,
                0,
                nd.capacity,
                static_cast<std::uint16_t>(nd.type == RrType::kSink ? 1 : 0),
                0,
                la->node_key(nd),
                0,
                0.0};
    }
    smark.assign(n, 0);
    bmark.assign(n, 0);
    pres_fac = opt.first_iter_pres_fac;
    // Out-degree upper bound: a dense-fanout OPIN can reach every start
    // over four adjacent channel positions (4W); a wire carries at most
    // two taps per covered tile plus three switch-box moves.
    edge_reserve = 4 * g.arch().W + 2 * std::max(g.nx(), g.ny()) + 8;
  }

  Scratch* acquire_scratch() {
    std::lock_guard<std::mutex> lk(scratch_mu);
    if (free_scratches.empty()) {
      scratches.push_back(
          std::make_unique<Scratch>(g.node_count(), edge_reserve));
      return scratches.back().get();
    }
    Scratch* s = free_scratches.back();
    free_scratches.pop_back();
    return s;
  }
  void release_scratch(Scratch* s) {
    std::lock_guard<std::mutex> lk(scratch_mu);
    free_scratches.push_back(s);
  }

  RouteCounters total_counters() const {
    RouteCounters t = cnt;
    for (const auto& s : scratches) {
      t.heap_pushes += s->cnt.heap_pushes;
      t.heap_pops += s->cnt.heap_pops;
      t.nodes_expanded += s->cnt.nodes_expanded;
      t.sink_searches += s->cnt.sink_searches;
      t.nets_routed += s->cnt.nets_routed;
      t.scratch_grows += s->cnt.scratch_grows;
      t.lookahead_hits += s->cnt.lookahead_hits;
      t.lookahead_suboptimal += s->cnt.lookahead_suboptimal;
      t.verify_dijkstra_expanded += s->cnt.verify_dijkstra_expanded;
      t.verify_astar_expanded += s->cnt.verify_astar_expanded;
    }
    if (timing) {
      t.sta_net_evals = timing->net_evals();
      t.sta_block_updates = timing->block_updates();
    }
    return t;
  }

  /// Occupancy changes go through these so the HotNode mirror and the
  /// incremental overuse tracker stay in lock step. Only ever called from
  /// the serial orchestration path — worker threads record their own-tree
  /// occupancy in the RelaxNode overlay instead.
  void inc_occ(RrNodeId id) {
    occ.inc(id);
    ++hot[id].occ;
  }
  void dec_occ(RrNodeId id) {
    occ.dec(id);
    --hot[id].occ;
  }
  /// Rebuild the per-iteration node-cost cache. The small deterministic
  /// jitter breaks the lock-step oscillations PathFinder can fall into
  /// when two nets see identical costs for each other's resources.
  void begin_iteration(std::size_t iter) {
    iteration = iter;
    const std::uint32_t salt = static_cast<std::uint32_t>(iter) * 40503u;
    const std::size_t n = hot.size();
    for (RrNodeId i = 0; i < n; ++i) {
      const std::uint32_t h = (i * 2654435761u) ^ salt;
      const double jitter =
          1.0 + 0.02 * static_cast<double>((h >> 16) & 0xff) / 255.0;
      hot[i].cost =
          (base_cost[i] * (1.0 + static_cast<double>(history[i]))) * jitter;
    }
  }

  /// Present-congestion cost of entering a node. `ov_add` is the overlay:
  /// occupancy the routing net's own tree has claimed but not committed,
  /// so the observed total equals what an inc-during-search router sees.
  double congestion_cost(const HotNode& hn, int ov_add) const {
    const int over =
        static_cast<int>(hn.occ) + ov_add + 1 - static_cast<int>(hn.cap);
    if (over <= 0) return hn.cost;
    return hn.cost * (1.0 + over * pres_fac);
  }

  static void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// One A* / Dijkstra run from the current tree seeds to `target`,
  /// bounded by the net window. `with_heur` false gives the plain
  /// Dijkstra reference verify_lookahead compares against. `crit` is the
  /// target connection's criticality (timing mode; ignored otherwise).
  /// On success the optimal path cost is in sc.relax[target].path_cost.
  bool search_sink(Scratch& sc, RrNodeId target, int x_lo, int x_hi,
                   int y_lo, int y_hi, bool with_heur, double crit) {
    ++sc.cur_epoch;
    const std::uint32_t ep = sc.cur_epoch;
    const std::uint32_t ov = sc.ov_cur;
    const HotNode& tn = hot[target];
    const float* la_tab = la->table();
    const std::int32_t tkey = la->target_key(tn.x_lo, tn.y_lo);
    const double la_fac = opt.astar_factor;
    // Timing blend, hoisted per search (the criticality is a property of
    // the target connection): entering v costs
    //   crit * delay(v) + (1 - crit) * congestion_cost(v) * spb
    // and the heuristic blends the delay and base lookahead halves with
    // the same weights, so each half lower-bounds its cost term and the
    // blend stays admissible at astar_factor <= 1.
    const bool tm = timing != nullptr;
    const double inv_spb = tm ? (1.0 - crit) * spb : 0.0;

    auto h_of = [&](const HotNode& hn) -> double {
      if (!with_heur) return 0.0;
      ++sc.cnt.lookahead_hits;
      const std::size_t idx = static_cast<std::size_t>(
          static_cast<std::int64_t>(hn.la_key) + tkey);
      if (tm) {
        const double dly =
            delay_tab ? static_cast<double>(delay_tab[idx]) : 0.0;
        return la_fac *
               (crit * dly + inv_spb * static_cast<double>(la_tab[idx]));
      }
      return la_fac * static_cast<double>(la_tab[idx]);
    };
    auto in_bb = [&](const HotNode& n) {
      return static_cast<int>(n.x_hi) >= x_lo &&
             static_cast<int>(n.x_lo) <= x_hi &&
             static_cast<int>(n.y_hi) >= y_lo &&
             static_cast<int>(n.y_lo) <= y_hi;
    };
    // Weighted A* (table factor > 1) never re-expands a closed node.
    // Scaling the table breaks its consistency, so a closed node can be
    // re-reached at lower g; re-expanding would restore exactness but at
    // factor > 1 the search is already only w-bounded, and the classic
    // WA*-without-reopening result keeps that same bound while expanding
    // each node at most once. At factor <= 1 the unscaled table is
    // consistent (thin-graph triangle inequality), re-expansion never
    // fires anyway, and leaving it enabled preserves the provable
    // Dijkstra-equality that verify_lookahead asserts. Closing is a
    // sentinel: -inf path_cost makes every later pop stale and every
    // relaxation attempt lose, with the prev chain left intact for the
    // backtrack and no new field in the packed RelaxNode.
    const bool no_reexpand = with_heur && la_fac > 1.0;

    sc.heap.clear();
    for (RrNodeId n : sc.tree_nodes) {
      RelaxNode& rn = sc.relax[n];
      const double known = tm ? crit * sc.node_tdel[n] : 0.0;
      rn.path_cost = known;
      rn.epoch = ep;
      rn.prev = kNoRrNode;
      sc.heap_push({known + h_of(hot[n]), known, n});
    }
    while (!sc.heap.empty()) {
      const QItem item = sc.heap_pop();
      const RrNodeId u = item.node;
      if (sc.relax[u].epoch == ep &&
          item.known > sc.relax[u].path_cost + 1e-9) {
        continue;  // stale entry
      }
      ++sc.cnt.nodes_expanded;
      if (u == target) return true;
      if (no_reexpand) {
        sc.relax[u].path_cost = -std::numeric_limits<double>::infinity();
      }
      const std::span<const RrEdge> es = g.edges(u, sc.edge_buf);
      for (std::size_t k = 0; k < es.size(); ++k) {
        if (k + 4 < es.size()) prefetch(&hot[es[k + 4].to]);
        const RrNodeId v = es[k].to;
        const HotNode& vn = hot[v];
        if (!in_bb(vn)) continue;
        if (vn.is_sink && v != target) continue;
        RelaxNode& rn = sc.relax[v];
        const int ov_add = rn.ov_epoch == ov ? rn.ov_add : 0;
        const double new_cost =
            tm ? item.known + crit * node_delay[v] +
                     inv_spb * congestion_cost(vn, ov_add)
               : item.known + congestion_cost(vn, ov_add);
        if (rn.epoch != ep || new_cost < rn.path_cost - 1e-9) {
          rn.path_cost = new_cost;
          rn.epoch = ep;
          rn.prev = u;
          sc.heap_push({new_cost + h_of(vn), new_cost, v});
        }
      }
    }
    return false;
  }

  enum class NetStatus { kOk, kReplay, kFail };

  /// Route one net from scratch within its bounding window, overwriting
  /// `out`. Never mutates shared occupancy — the caller applies commit()
  /// afterwards, which is what makes speculative parallel routing and
  /// serial routing share one code path. `speculative` turns the
  /// window-escape failure into kReplay (the serial replay owns retries);
  /// non-speculative failure reports kFail so route_net can retry
  /// unconstrained.
  NetStatus route_net_bb(Scratch& sc, std::size_t net_idx,
                         const PlacedNet& net, RouteTree& out,
                         std::size_t bb_margin, bool speculative) {
    const BlockLoc& dloc = pl.locs[net.driver];
    const RrNodeId source = g.site(dloc.x, dloc.y).source;
    out.source = source;
    out.edges.clear();
    out.sinks.clear();

    // Net bounding box (+margin) restricts expansion.
    int x_lo = static_cast<int>(dloc.x), x_hi = x_lo;
    int y_lo = static_cast<int>(dloc.y), y_hi = y_lo;
    sc.sink_nodes.clear();
    for (std::size_t s : net.sinks) {
      const BlockLoc& l = pl.locs[s];
      sc.sink_nodes.push_back(g.site(l.x, l.y).sink);
      x_lo = std::min(x_lo, static_cast<int>(l.x));
      x_hi = std::max(x_hi, static_cast<int>(l.x));
      y_lo = std::min(y_lo, static_cast<int>(l.y));
      y_hi = std::max(y_hi, static_cast<int>(l.y));
    }
    const int m = static_cast<int>(bb_margin);
    x_lo -= m;
    x_hi += m;
    y_lo -= m;
    y_hi += m;

    // Sort sinks near-to-far from the driver. The keys are evaluated once
    // per sink up front — not O(n log n) times inside the comparator. In
    // timing mode the key is the same blended estimate the search
    // minimizes, and the per-connection criticalities are fetched here —
    // once per route attempt — for the searches below.
    sc.order.resize(sc.sink_nodes.size());
    sc.sink_keys.resize(sc.sink_nodes.size());
    if (timing) sc.sink_crit.resize(sc.sink_nodes.size());
    const RrNode src = g.node(source);
    for (std::uint32_t i = 0; i < sc.order.size(); ++i) {
      sc.order[i] = i;
      const HotNode& tn = hot[sc.sink_nodes[i]];
      if (timing) {
        const double crit = timing->criticality(net_idx, i);
        sc.sink_crit[i] = crit;
        const double inv_spb = (1.0 - crit) * spb;
        const double dly =
            delay_tab ? la->delay_estimate(src, tn.x_lo, tn.y_lo) : 0.0;
        sc.sink_keys[i] =
            opt.astar_factor *
            (crit * dly + inv_spb * la->estimate(src, tn.x_lo, tn.y_lo));
      } else {
        sc.sink_keys[i] =
            opt.astar_factor * la->estimate(src, tn.x_lo, tn.y_lo);
      }
    }
    // Timing mode routes the most critical sinks first (VPR order): the
    // earliest searches see an almost-empty tree, so critical
    // connections get the direct source paths and later, relaxed sinks
    // branch around them. Congestion-only routes near-to-far.
    std::sort(sc.order.begin(), sc.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (timing && sc.sink_crit[a] != sc.sink_crit[b]) {
                  return sc.sink_crit[a] > sc.sink_crit[b];
                }
                return sc.sink_keys[a] < sc.sink_keys[b];
              });

    // Tree membership via epoch marks. In timing mode each tree node also
    // carries its delay from the source (the same per-node stage delays
    // the STA measures), so later sink searches start tree seeds at
    // known = crit * delay-from-source: a critical sink no longer sees
    // branching off a long meander as free.
    ++sc.mark_cur;
    sc.tree_nodes.clear();
    sc.tree_nodes.push_back(source);
    sc.mark[source] = sc.mark_cur;
    if (timing) {
      if (sc.node_tdel.size() != g.node_count()) {
        sc.node_tdel.assign(g.node_count(), 0.0);
      }
      sc.node_tdel[source] = 0.0;
    }

    for (std::uint32_t oi : sc.order) {
      const RrNodeId target = sc.sink_nodes[oi];
      if (sc.mark[target] == sc.mark_cur) {
        // Another sink block shares this SINK node; already reached.
        out.sinks.push_back(target);
        continue;
      }
      ++sc.cnt.sink_searches;
      const double crit = timing ? sc.sink_crit[oi] : 0.0;
      bool found;
      if (opt.verify_lookahead) {
        // Admissibility probe: a zero-heuristic Dijkstra on the identical
        // cost state first (its work excluded from the counters), then
        // the directed search, then compare optimal costs. The probe is
        // also the honest way to measure what the table buys: the same
        // searches on the same cost states, heuristic on vs off
        // (dijkstra_expanded / astar_expanded — route_perf --verify-la
        // reports the ratio).
        const RouteCounters saved = sc.cnt;
        const bool ref_found =
            search_sink(sc, target, x_lo, x_hi, y_lo, y_hi, false, crit);
        const double ref_cost =
            ref_found ? sc.relax[target].path_cost : 0.0;
        const std::uint64_t ref_exp =
            sc.cnt.nodes_expanded - saved.nodes_expanded;
        sc.cnt = saved;
        found = search_sink(sc, target, x_lo, x_hi, y_lo, y_hi, true, crit);
        sc.cnt.verify_dijkstra_expanded += ref_exp;
        sc.cnt.verify_astar_expanded +=
            sc.cnt.nodes_expanded - saved.nodes_expanded;
        if (found != ref_found ||
            (found && sc.relax[target].path_cost > ref_cost + 1e-9)) {
          ++sc.cnt.lookahead_suboptimal;
        }
      } else {
        found = search_sink(sc, target, x_lo, x_hi, y_lo, y_hi, true, crit);
      }
      if (!found) {
        // The partial tree took no occupancy (the overlay is discarded);
        // the serial replay or the unconstrained retry starts over.
        return speculative ? NetStatus::kReplay : NetStatus::kFail;
      }
      // Backtrace; new nodes join the tree and the occupancy overlay.
      sc.path.clear();
      RrNodeId n = target;
      while (sc.relax[n].prev != kNoRrNode) {
        sc.path.emplace_back(sc.relax[n].prev, n);
        n = sc.relax[n].prev;
      }
      for (auto it = sc.path.rbegin(); it != sc.path.rend(); ++it) {
        out.edges.push_back(*it);
        if (sc.mark[it->second] != sc.mark_cur) {
          sc.mark[it->second] = sc.mark_cur;
          sc.tree_nodes.push_back(it->second);
          if (timing) {
            sc.node_tdel[it->second] =
                sc.node_tdel[it->first] + node_delay[it->second];
          }
          RelaxNode& rn = sc.relax[it->second];
          if (rn.ov_epoch != sc.ov_cur) {
            rn.ov_epoch = sc.ov_cur;
            rn.ov_add = 1;
          } else {
            ++rn.ov_add;
          }
        }
      }
      out.sinks.push_back(target);
    }
    return NetStatus::kOk;
  }

  /// Route one net from scratch; tree written into `out`. Success leaves
  /// the tree's occupancy uncommitted — pair every kOk with commit().
  /// kFail means a sink was unreachable even unconstrained (graph
  /// disconnection — hard failure); kReplay (speculative only) means the
  /// serial replay must redo this net.
  NetStatus route_net(Scratch& sc, std::size_t net_idx, const PlacedNet& net,
                      RouteTree& out, std::size_t extra_bb,
                      bool speculative) {
    const std::size_t cap_before = sc.capacity();
    ++sc.cnt.nets_routed;
    ++sc.ov_cur;
    // Routes outside the net bounding box are rare but legal (sparse track
    // connectivity can force a detour); retry unconstrained before giving
    // up.
    NetStatus st = route_net_bb(sc, net_idx, net, out,
                                opt.bb_margin + extra_bb, speculative);
    if (st == NetStatus::kFail && !speculative) {
      ++sc.ov_cur;
      st = route_net_bb(sc, net_idx, net, out, g.nx() + g.ny(), speculative);
    }
    if (sc.capacity() != cap_before) ++sc.cnt.scratch_grows;
    return st;
  }

  /// Apply a routed net's occupancy: each edge added exactly one new tree
  /// node (its `to` — the backtrace only traverses fresh nodes), so the
  /// edge sequence *is* the new-node sequence, in the same order an
  /// inc-during-search router would have claimed them.
  void commit(const RouteTree& t) {
    for (const auto& [from, to] : t.edges) {
      (void)from;
      inc_occ(to);
    }
    inc_occ(t.source);
  }
  /// Batch conflict marks: a committed member's claimed nodes, checked by
  /// later members of the same batch. The scheduling rectangles keep
  /// members' *bounding boxes* apart but not their full routing windows,
  /// so two speculative trees can claim the same node in the shared
  /// margin zone — the member with the higher net index is then re-routed
  /// serially (deterministic: the frozen batch state and the commit order
  /// decide, never the thread count). debug_replay_every exercises the
  /// same path on demand.
  bool conflicts(const RouteTree& t) const {
    if (bmark[t.source] == bmark_cur) return true;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      if (bmark[to] == bmark_cur) return true;
    }
    return false;
  }
  void mark_committed(const RouteTree& t) {
    bmark[t.source] = bmark_cur;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      bmark[to] = bmark_cur;
    }
  }

  /// Release a whole tree's occupancy.
  void rip_up(const RouteTree& t) {
    if (t.source == kNoRrNode) return;
    dec_occ(t.source);
    ++smark_cur;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      if (smark[to] != smark_cur) {
        smark[to] = smark_cur;
        dec_occ(to);
      }
    }
  }

  /// Charge a pre-existing live routing's occupancy before the first
  /// seeded iteration (route_incremental): the exact mirror of rip_up,
  /// including the duplicate-edge dedup, so seeding then ripping a tree
  /// is occupancy-neutral.
  void seed_occupancy(const std::vector<RouteTree>& trees) {
    for (const RouteTree& t : trees) {
      if (t.source == kNoRrNode) continue;
      inc_occ(t.source);
      ++smark_cur;
      for (const auto& [from, to] : t.edges) {
        (void)from;
        if (smark[to] != smark_cur) {
          smark[to] = smark_cur;
          inc_occ(to);
        }
      }
    }
  }

  void update_history() {
    occ.for_each_overused([this](RrNodeId i, int over) {
      history[i] += static_cast<float>(opt.history_fac * over);
    });
  }
};

/// Shared orchestration behind route_all and route_incremental. In seeded
/// mode `seed_trees` is a live routing (empty trees mark the nets to
/// (re)route); its occupancy is charged up front and *every* iteration —
/// including the first — runs the incremental rip/skip discipline, so
/// kept trees stay untouched unless congestion reaches them. Unseeded,
/// this is exactly the classic route_all: iteration 1 routes every net.
RoutingResult route_session(const RrGraphView& g, const Placement& pl,
                            const RouteOptions& opt,
                            std::vector<RouteTree> seed_trees, bool seeded) {
  require_valid_astar_factor(opt.astar_factor);
  Router router(g, pl, opt);
  using NetStatus = Router::NetStatus;
  RoutingResult res;
  if (seeded) {
    res.trees = std::move(seed_trees);
    router.seed_occupancy(res.trees);
    // Seeded sessions skip the near-free exploratory first iteration:
    // the kept trees already encode a converged negotiation, and the
    // cleared nets should route around them, not through them.
    router.pres_fac = std::min(opt.seeded_pres_fac, opt.pres_fac_max);
  } else {
    res.trees.assign(pl.nets.size(), {});
  }
  res.routed_nets.assign(pl.nets.size(), 0);
  std::size_t best_overuse = static_cast<std::size_t>(-1);
  std::size_t best_iter = 0;
  // Per-iteration overuse history, feeding the hopeless-probe predictor
  // below (indexed by iteration - 1).
  std::vector<std::size_t> ou_hist;
  ou_hist.reserve(opt.max_iterations);

  // The arena used by every serial route (whole run in serial mode; rip
  // stage + conflict replays in batched mode).
  Router::Scratch& main_sc = *router.acquire_scratch();

  // A net only needs rerouting while its tree touches an overused node —
  // a per-node flag lookup against the incremental overuse tracker.
  auto touches_overuse = [&](const RouteTree& t) {
    if (t.source == kNoRrNode) return true;
    if (router.occ.overused(t.source)) return true;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      if (router.occ.overused(to)) return true;
    }
    return false;
  };

  // Nets that stay congested get a progressively wider routing window:
  // the bounding-box constraint can hide every alternative to a contended
  // resource, freezing a conflict no cost growth can break.
  std::vector<std::size_t> extra_bb(pl.nets.size(), 0);

  // Timing-driven orchestration: the hook re-analyzes timing at the start
  // of each iteration over exactly the nets the previous one (re)routed —
  // the incremental-STA contract — and once more over the final trees.
  const bool timing_on = opt.timing_driven && opt.timing_hook != nullptr;
  std::vector<std::size_t> dirty;
  if (timing_on) dirty.reserve(pl.nets.size());

  auto fail_out = [&](double t0) {
    res.success = false;
    res.overused_nodes = router.occ.overused_count();
    router.cnt.t_search_s += wall_s() - t0;
    res.counters = router.total_counters();
    return res;
  };

  // Batched-mode state, reused across iterations.
  struct Member {
    RouteTree tree;
    NetStatus st = NetStatus::kFail;
  };
  std::vector<std::vector<std::size_t>> batches;
  std::vector<std::size_t> live;
  std::vector<Member> members;

  if (opt.net_parallel) {
    // Partition every net — in net order — into batches whose scheduling
    // rectangles (net bounding box + kSchedMargin) are pairwise disjoint
    // within a batch, by first-fit coloring: a per-cell bitmask records
    // which of the first 64 batches already touch the cell, and a net
    // takes the lowest batch free across its whole rectangle. First-fit
    // matters — the obvious "one past the deepest batch seen" chaining
    // degenerates to singleton batches because net order follows cluster
    // order, so consecutive nets overlap at their shared driver tile and
    // the level sequence climbs monotonically; first-fit instead packs
    // nets from across the whole grid into every batch. Nets whose
    // rectangles see all 64 colors (only the hottest cells on the
    // biggest fabrics) overflow into levelized batches above 64.
    //
    // The rectangle deliberately does NOT cover the whole routing window
    // (bb_margin + wire reach + later widening): that would make batches
    // provably conflict-free but degenerate, since on MCNC-scale fabrics
    // the inflated windows blanket the grid. Tight rectangles give real
    // batch widths; the price is that two members' trees can
    // occasionally claim the same node in the shared margin zone — or a
    // shared SOURCE/SINK site node — which the commit stage detects and
    // resolves by deterministic serial replay
    // (RouteCounters::conflict_replays). The partition depends only on
    // the placement — never on the thread count or any routing state —
    // so it is computed once per route_all and the whole schedule is
    // bit-deterministic.
    constexpr int kSchedMargin = 1;
    const std::size_t gx = g.nx() + 2, gy = g.ny() + 2;
    std::vector<std::uint64_t> color(gx * gy, 0);
    std::vector<std::uint32_t> level(gx * gy, 64);
    for (std::size_t n = 0; n < pl.nets.size(); ++n) {
      const PlacedNet& net = pl.nets[n];
      const BlockLoc& dloc = pl.locs[net.driver];
      int bx_lo = static_cast<int>(dloc.x), bx_hi = bx_lo;
      int by_lo = static_cast<int>(dloc.y), by_hi = by_lo;
      for (std::size_t s : net.sinks) {
        const BlockLoc& l = pl.locs[s];
        bx_lo = std::min(bx_lo, static_cast<int>(l.x));
        bx_hi = std::max(bx_hi, static_cast<int>(l.x));
        by_lo = std::min(by_lo, static_cast<int>(l.y));
        by_hi = std::max(by_hi, static_cast<int>(l.y));
      }
      bx_lo = std::max(bx_lo - kSchedMargin, 0);
      by_lo = std::max(by_lo - kSchedMargin, 0);
      bx_hi = std::min(bx_hi + kSchedMargin, static_cast<int>(gx) - 1);
      by_hi = std::min(by_hi + kSchedMargin, static_cast<int>(gy) - 1);
      std::uint64_t used = 0;
      std::uint32_t lvl = 64;
      for (int x = bx_lo; x <= bx_hi; ++x) {
        const std::size_t row = static_cast<std::size_t>(x) * gy;
        for (int y = by_lo; y <= by_hi; ++y) {
          used |= color[row + y];
          lvl = std::max(lvl, level[row + y]);
        }
      }
      const std::uint32_t b =
          used != ~0ull ? static_cast<std::uint32_t>(std::countr_one(used))
                        : lvl;
      if (b >= batches.size()) batches.resize(b + 1);
      batches[b].push_back(n);
      for (int x = bx_lo; x <= bx_hi; ++x) {
        const std::size_t row = static_cast<std::size_t>(x) * gy;
        for (int y = by_lo; y <= by_hi; ++y) {
          if (b < 64) {
            color[row + y] |= 1ull << b;
          } else {
            level[row + y] = b + 1;
          }
        }
      }
    }
  }

  for (std::size_t iter = 1; iter <= opt.max_iterations; ++iter) {
    if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
      res.stopped = true;
      break;
    }
    res.iterations = iter;
    if (timing_on) {
      const double ts = wall_s();
      opt.timing_hook->update(g, res.trees, dirty, iter);
      dirty.clear();
      router.cnt.t_sta_s += wall_s() - ts;
    }
    double t0 = wall_s();
    router.begin_iteration(iter);
    router.cnt.t_bookkeep_s += wall_s() - t0;
    t0 = wall_s();

    if (!opt.net_parallel) {
      // Serial mode: the classic PathFinder net loop, bit-identical to
      // the pre-batching router (route-then-commit observes the exact
      // occupancy sequence inc-during-search did, via the overlay).
      for (std::size_t n = 0; n < pl.nets.size(); ++n) {
        if (iter > 1 || seeded) {
          // Congestion fully cleared mid-iteration: every remaining net
          // would fail touches_overuse anyway. Not taken on the seeded
          // first iteration — empty (invalidated) trees carry no overuse
          // but still need their first route.
          if (iter > 1 && router.occ.overused_count() == 0) break;
          if (!touches_overuse(res.trees[n])) continue;
          ++router.cnt.nets_rerouted;
          router.rip_up(res.trees[n]);
          res.trees[n] = RouteTree{};
          if (iter > 12) {
            extra_bb[n] =
                std::min<std::size_t>(extra_bb[n] + 2, g.nx() + g.ny());
          }
        }
        if (router.route_net(main_sc, n, pl.nets[n], res.trees[n],
                             extra_bb[n],
                             /*speculative=*/false) != NetStatus::kOk) {
          // Hard disconnection — no amount of iteration will fix it.
          return fail_out(t0);
        }
        router.commit(res.trees[n]);
        res.routed_nets[n] = 1;
        if (timing_on) dirty.push_back(n);
      }
    } else {
      // Batched mode, over the placement-time partition computed above.
      // Which batch members actually reroute is decided at the batch's
      // rip stage against the *live* occupancy, exactly like the serial
      // loop: commits interleave between batches in net order, so a net
      // freshly congested by an earlier batch still reroutes within the
      // same iteration. Members of one batch route concurrently against
      // the occupancy frozen at batch start; the commit stage then
      // resolves same-batch collisions by serial replay in ascending net
      // order. Everything — schedule, frozen state, commit order, replay
      // decisions — is independent of the thread count.
      for (const auto& batch : batches) {
        if (iter > 1 && router.occ.overused_count() == 0) break;
        // Rip stage (serial, net order): membership is decided against
        // the live occupancy — exactly the serial loop's per-net check.
        live.clear();
        for (std::size_t n : batch) {
          if (iter > 1 || seeded) {
            if (!touches_overuse(res.trees[n])) continue;
            ++router.cnt.nets_rerouted;
            router.rip_up(res.trees[n]);
            res.trees[n] = RouteTree{};
            if (iter > 12) {
              extra_bb[n] =
                  std::min<std::size_t>(extra_bb[n] + 2, g.nx() + g.ny());
            }
          }
          live.push_back(n);
        }
        if (live.empty()) continue;
        if (live.size() == 1) {
          // A one-member batch is the serial loop with extra steps:
          // route it directly against the live state — no dispatch, no
          // speculation, not counted as a parallel batch. Batch width is
          // thread-count independent, so so is taking this path.
          const std::size_t n = live[0];
          if (router.route_net(main_sc, n, pl.nets[n], res.trees[n],
                               extra_bb[n], /*speculative=*/false) !=
              NetStatus::kOk) {
            return fail_out(t0);
          }
          router.commit(res.trees[n]);
          res.routed_nets[n] = 1;
          if (timing_on) dirty.push_back(n);
          continue;
        }
        ++router.cnt.batches;

        // Route stage: members run concurrently against the shared state
        // frozen for the whole batch, each recording its own-tree
        // occupancy in its scratch overlay.
        members.resize(live.size());
        parallel_for(live.size(), [&](std::size_t i) {
          Router::Scratch* sc = router.acquire_scratch();
          Member& m = members[i];
          m.st = router.route_net(*sc, live[i], pl.nets[live[i]], m.tree,
                                  extra_bb[live[i]], /*speculative=*/true);
          router.release_scratch(sc);
        });

        // Commit stage (serial, ascending net order). A member is
        // replayed — re-routed serially against the live state, with the
        // unconstrained-retry semantics — when its speculative route
        // escaped the window, when it claimed a node an earlier member of
        // this batch committed, or when the debug hook says so.
        ++router.bmark_cur;
        for (std::size_t i = 0; i < live.size(); ++i) {
          const std::size_t n = live[i];
          Member& m = members[i];
          bool replay = m.st != NetStatus::kOk;
          if (!replay && opt.debug_replay_every != 0 &&
              (i + 1) % opt.debug_replay_every == 0) {
            replay = true;
          }
          if (!replay && router.conflicts(m.tree)) replay = true;
          if (!replay) {
            router.mark_committed(m.tree);
            router.commit(m.tree);
            res.trees[n] = std::move(m.tree);
          } else {
            ++router.cnt.conflict_replays;
            if (router.route_net(main_sc, n, pl.nets[n], res.trees[n],
                                 extra_bb[n], /*speculative=*/false) !=
                NetStatus::kOk) {
              return fail_out(t0);
            }
            router.mark_committed(res.trees[n]);
            router.commit(res.trees[n]);
          }
          res.routed_nets[n] = 1;
          if (timing_on) dirty.push_back(n);
        }
      }
    }

    router.cnt.t_search_s += wall_s() - t0;
    res.overused_nodes = router.occ.overused_count();
    if (res.overused_nodes == 0) {
      res.success = true;
      break;
    }
    // Plateau detection: large congestion that stops improving will not
    // resolve; bail out early so channel-width searches stay fast. Small
    // residual overuse (a handful of nodes) is left to the growing
    // present-cost factor, which routinely clears it late.
    if (res.overused_nodes < best_overuse) {
      best_overuse = res.overused_nodes;
      best_iter = iter;
    } else if (best_overuse > 20 && iter > best_iter + 15 &&
               res.overused_nodes > best_overuse * 95 / 100) {
      break;
    }
    // Infeasibility prediction, two deterministic rules (iteration counts
    // are part of the golden contract; the reference oracle transcribes
    // both rules verbatim):
    //
    // 1. Structural-congestion cut: when congestion still spans more than
    //    a quarter of all nets at the fixed checkpoint iteration, the
    //    shortage is structural and negotiation cannot clear it. Feasible
    //    routes are far below this by then — across the MCNC set the
    //    worst passing probe sits at nets/16 at iteration 12, a 4x
    //    margin — while deep-infeasible channel-width probes plateau at
    //    half the net count indefinitely.
    //
    // 2. Slope forecast: extrapolate the overuse trend over a
    //    16-iteration window and abort when even this optimistic linear
    //    forecast overshoots the iteration budget by 50%. Catches the
    //    slowly-decaying infeasible probes the checkpoint cut admits;
    //    feasible probes collapse steeply (hundreds to single digits
    //    within ~20 iterations) and never come close to tripping it.
    ou_hist.push_back(res.overused_nodes);
    if (iter == 12 && res.overused_nodes * 4 > pl.nets.size()) {
      break;
    }
    if (iter >= 24 && res.overused_nodes > 20) {
      const std::size_t prev = ou_hist[ou_hist.size() - 17];
      if (prev > res.overused_nodes) {
        const double slope =
            static_cast<double>(prev - res.overused_nodes) / 16.0;
        const double predicted =
            static_cast<double>(iter) +
            static_cast<double>(res.overused_nodes) / slope;
        if (predicted > 1.5 * static_cast<double>(opt.max_iterations)) {
          break;
        }
      }
    }
    t0 = wall_s();
    router.update_history();
    router.cnt.t_bookkeep_s += wall_s() - t0;
    router.pres_fac =
        std::min(router.pres_fac * opt.pres_fac_mult, opt.pres_fac_max);
  }

  if (res.success && timing_on) {
    // Final STA pass over the winning trees (the last iteration's reroutes
    // have not been analyzed yet) so the reported critical path and slack
    // describe exactly the routing being returned.
    const double ts = wall_s();
    opt.timing_hook->update(g, res.trees, dirty, res.iterations + 1);
    router.cnt.t_sta_s += wall_s() - ts;
    res.critical_path_s = opt.timing_hook->critical_path();
    res.worst_slack_s = opt.timing_hook->worst_slack();
  }

  if (res.success) {
    // Wire census over the final trees, deduped with the same epoch marks
    // the rip-up path uses (no hash set, no allocation).
    ++router.smark_cur;
    for (const auto& t : res.trees) {
      for (const auto& [from, to] : t.edges) {
        (void)from;
        const RrNode& n = g.node(to);
        if (n.type == RrType::kChanX || n.type == RrType::kChanY) {
          if (router.smark[to] != router.smark_cur) {
            router.smark[to] = router.smark_cur;
            ++res.wire_segments_used;
            res.total_wire_tiles += n.length;
          }
        }
      }
    }
  }
  res.counters = router.total_counters();
  // Invariant hook: a successful routing must be legal — connected trees,
  // every sink reached, no capacity overflow (NF_CHECK_INVARIANTS).
  if (res.success && verify::checks_enabled()) {
    check_routing(g, pl, res);
  }
  return res;
}

}  // namespace

RoutingResult route_all(const RrGraphView& g, const Placement& pl,
                        const RouteOptions& opt) {
  return route_session(g, pl, opt, {}, /*seeded=*/false);
}

RoutingResult route_incremental(const RrGraphView& g, const Placement& pl,
                                std::vector<RouteTree> base_trees,
                                const RouteOptions& opt) {
  if (base_trees.size() != pl.nets.size()) {
    throw std::invalid_argument(
        "route_incremental: base tree / placed net count mismatch");
  }
  return route_session(g, pl, opt, std::move(base_trees), /*seeded=*/true);
}

void check_routing(const RrGraphView& g, const Placement& pl,
                   const RoutingResult& r) {
  if (r.trees.size() != pl.nets.size()) {
    throw std::logic_error("check_routing: tree count mismatch");
  }
  std::vector<std::uint32_t> occ(g.node_count(), 0);
  std::vector<std::uint32_t> reached(g.node_count(), 0);
  std::uint32_t pass = 0;
  for (std::size_t n = 0; n < pl.nets.size(); ++n) {
    const RouteTree& t = r.trees[n];
    const BlockLoc& d = pl.locs[pl.nets[n].driver];
    if (t.source != g.site(d.x, d.y).source) {
      throw std::logic_error("check_routing: wrong source");
    }
    ++occ[t.source];
    ++pass;
    reached[t.source] = pass;
    for (const auto& [from, to] : t.edges) {
      if (reached[from] != pass) {
        throw std::logic_error("check_routing: disconnected edge");
      }
      if (reached[to] != pass) {
        reached[to] = pass;
        ++occ[to];
      }
    }
    // Every sink block's SINK node must be reached.
    for (std::size_t s : pl.nets[n].sinks) {
      const BlockLoc& l = pl.locs[s];
      if (reached[g.site(l.x, l.y).sink] != pass) {
        throw std::logic_error("check_routing: sink not reached");
      }
    }
  }
  for (RrNodeId i = 0; i < g.node_count(); ++i) {
    if (occ[i] > g.node(i).capacity) {
      throw std::logic_error("check_routing: capacity violated");
    }
  }
}

ChannelWidthResult find_min_channel_width(const ArchParams& arch,
                                          const Placement& pl,
                                          std::size_t w_hint,
                                          const RouteOptions& opt) {
  // Each probe builds its own RrGraph and Router state, so probes are
  // share-nothing and run concurrently. run_width_search decides from the
  // same widths whichever probes finish first, so the returned Wmin is
  // identical at any NF_THREADS setting — parallelism only accelerates
  // the search.
  require_valid_astar_factor(opt.astar_factor);
  const std::size_t w_cap = std::max<std::size_t>(4, opt.max_channel_width);

  // The lookahead table is W-independent (it is built over a thin
  // canonical graph keyed by fabric size and cost profile), so build it
  // once here and hand the same table to every probe instead of paying
  // the construction inside each route_all call.
  RouteOptions probe_opt = opt;
  // Probes route with the serial per-net scheduler even when the caller
  // asked for net_parallel. Concurrent probes already saturate the pool,
  // and route_all's nested parallel_for would run serially inside a
  // probe anyway — so batching inside a probe buys zero parallelism
  // while still paying its one cost: batch members route against a
  // frozen occupancy snapshot and miss each other's usage, which on
  // small fabrics can tip a borderline width from routable to not
  // (observed as a +1 Wmin shift on tseng). Serial probes keep the width
  // search at full negotiation quality; net-level parallelism still
  // applies to direct route_all calls, which is where the threads
  // actually reach it.
  probe_opt.net_parallel = false;
  // Width probes stay congestion-only regardless of the caller's timing
  // settings: channel width is a routability question, the hook is
  // stateful (one route_all per instance) so probes could not share it,
  // and iso-delay comparisons (EXPERIMENTS.md) require timing-driven and
  // congestion-only runs to land on identical Wmin by construction.
  probe_opt.timing_driven = false;
  probe_opt.timing_hook = nullptr;
  if (!probe_opt.lookahead) {
    probe_opt.lookahead =
        std::make_shared<const RouteLookahead>(arch, pl.nx, pl.ny);
  }

  const WidthProbe probe = [&](std::size_t w,
                               const std::atomic<bool>& stop) {
    RouteOptions o = probe_opt;
    o.stop = &stop;
    ArchParams a = arch;
    a.W = std::max<std::size_t>(2, w);
    RoutingResult r;
    if (o.rr_backend == RrBackend::kImplicit) {
      r = route_all(ImplicitRrGraph(a, pl.nx, pl.ny), pl, o);
    } else {
      r = route_all(RrGraph(a, pl.nx, pl.ny), pl, o);
    }
    if (r.stopped) return WidthVerdict::kUnknown;
    return r.success ? WidthVerdict::kRoutes : WidthVerdict::kFails;
  };
  const WidthSearchOutcome found = run_width_search(w_hint, w_cap, probe);

  ChannelWidthResult out;
  if (!found.feasible) {
    // Saturated: no probe up to the cap routed. Report the explicit
    // infeasible status instead of a garbage width — callers (run_flow,
    // route_perf, bench_check.py) propagate it.
    std::fprintf(stderr,
                 "find_min_channel_width: grow phase hit the W cap "
                 "(max_channel_width=%zu, last lower bound %zu) — design "
                 "is unroutable at any modeled width\n",
                 w_cap, found.lo);
    out.feasible = false;
    out.w_cap = w_cap;
    return out;
  }
  out.w_min = found.w_min;
  std::size_t w = static_cast<std::size_t>(
      std::ceil(1.2 * static_cast<double>(found.w_min)));
  if (w % 2) ++w;  // even track counts keep INC/DEC pairs balanced
  out.w_low_stress = w;
  return out;
}

}  // namespace nemfpga
