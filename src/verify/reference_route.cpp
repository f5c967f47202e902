// Reference PathFinder oracle. This is the "straightforward implementation"
// the optimized router's comments promise bit-identity with: the same
// algorithm (same comparator, same relaxation epsilons, same deterministic
// jitter, same A* lookahead key, same batched-parallel schedule, same
// iteration schedule), expressed with per-net hash maps, whole-vector
// occupancy snapshots and full O(V) rescans instead of the production
// scratch arena, HotNode cost cache, epoch stamps and incremental overuse
// tracker. Any divergence between the two is a bug in one of them — that
// is the point.
#include "verify/oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "arch/lookahead.hpp"

namespace nemfpga::verify {
namespace {

struct RefRouter {
  const RrGraphView g;
  const Placement& pl;
  const RouteOptions& opt;

  std::vector<std::uint16_t> cap;
  std::vector<std::uint32_t> occ;
  std::vector<float> history;  // float, like the production router
  std::vector<double> base_cost;
  std::vector<double> cost;  // per-iteration: base * (1 + history) * jitter
  double pres_fac;

  /// The same geometric lookahead table the production router queries
  /// (shared when the caller prebuilt one, else built here) — the A* key
  /// must be transcribed bit-exactly or the searches tie-break apart.
  std::shared_ptr<const RouteLookahead> la;

  /// Timing-driven transcription: the same borrowed RouterTimingHook the
  /// production router consumes (null when congestion-only). The hook is
  /// stateful, so a differential run hands each router its own instance.
  RouterTimingHook* const timing;
  const double* node_delay = nullptr;  ///< Per-node entering delay [s].
  double spb = 0.0;                    ///< Seconds per unit base cost.

  /// Edge-enumeration buffer for the implicit backend (the view's
  /// edges(id, buf) fills it; explicit backends hand back stored spans).
  std::vector<RrEdge> ebuf;

  struct QItem {
    double cost;
    double known;
    RrNodeId node;
    bool operator>(const QItem& o) const { return cost > o.cost; }
  };

  RefRouter(const RrGraphView& graph, const Placement& placement,
            const RouteOptions& options)
      : g(graph), pl(placement), opt(options),
        timing(options.timing_driven ? options.timing_hook : nullptr) {
    const std::size_t n = g.node_count();
    cap.resize(n);
    occ.assign(n, 0);
    history.assign(n, 0.0f);
    base_cost.resize(n);
    cost.resize(n);
    for (RrNodeId i = 0; i < n; ++i) {
      cap[i] = g.node(i).capacity;
      base_cost[i] = node_base_cost(g.node(i));
    }
    pres_fac = opt.first_iter_pres_fac;
    if (opt.lookahead) {
      la = opt.lookahead;
    } else if (timing) {
      // Delay-annotated twin table, like the production constructor.
      const DelayProfile prof = timing->delay_profile();
      la = std::make_shared<const RouteLookahead>(g, &prof);
    } else {
      la = std::make_shared<const RouteLookahead>(g);
    }
    if (timing) {
      node_delay = timing->node_delay();
      spb = timing->sec_per_base();
    }
  }

  static double node_base_cost(const RrNode& n) {
    switch (n.type) {
      case RrType::kChanX:
      case RrType::kChanY:
        return static_cast<double>(n.length);
      case RrType::kIpin:
        return 0.95;
      case RrType::kSink:
        return 0.0;
      default:
        return 1.0;
    }
  }

  bool overused(RrNodeId id) const { return occ[id] > cap[id]; }

  std::size_t overused_count() const {
    std::size_t n = 0;
    for (RrNodeId i = 0; i < g.node_count(); ++i) {
      if (overused(i)) ++n;
    }
    return n;
  }

  void begin_iteration(std::size_t iter) {
    const std::uint32_t salt = static_cast<std::uint32_t>(iter) * 40503u;
    for (RrNodeId i = 0; i < g.node_count(); ++i) {
      const std::uint32_t h = (i * 2654435761u) ^ salt;
      const double jitter =
          1.0 + 0.02 * static_cast<double>((h >> 16) & 0xff) / 255.0;
      cost[i] =
          (base_cost[i] * (1.0 + static_cast<double>(history[i]))) * jitter;
    }
  }

  double congestion_cost(RrNodeId id) const {
    const int over = static_cast<int>(occ[id]) + 1 - static_cast<int>(cap[id]);
    if (over <= 0) return cost[id];
    return cost[id] * (1.0 + over * pres_fac);
  }

  double heuristic(RrNodeId from, RrNodeId to, double crit) const {
    const RrNode a = g.node(from);
    const RrNode b = g.node(to);
    if (timing) {
      // Blended halves with the relaxation weights, transcribed from the
      // production h_of: the delay half reads the lookahead's delay twin
      // table (zero when a caller-shared table lacks one, exactly the
      // production delay_tab null check).
      const double dly = la->has_delay_table()
                             ? la->delay_estimate(a, b.x_lo, b.y_lo)
                             : 0.0;
      return opt.astar_factor *
             (crit * dly +
              (1.0 - crit) * spb * la->estimate(a, b.x_lo, b.y_lo));
    }
    // A* key: lookahead table at the target sink's tile, weighted by
    // astar_factor — the exact expression the production search core
    // evaluates through its folded HotNode::la_key.
    return opt.astar_factor * la->estimate(a, b.x_lo, b.y_lo);
  }

  /// Route from scratch within the bounding window, retrying
  /// unconstrained when a sink is unreachable inside it.
  bool route_net(std::size_t net_idx, const PlacedNet& net, RouteTree& out,
                 std::size_t extra_bb) {
    return route_net_bb(net_idx, net, out, opt.bb_margin + extra_bb) ||
           route_net_bb(net_idx, net, out, g.nx() + g.ny());
  }

  bool route_net_bb(std::size_t net_idx, const PlacedNet& net, RouteTree& out,
                    std::size_t bb_margin) {
    const BlockLoc& dloc = pl.locs[net.driver];
    const RrNodeId source = g.site(dloc.x, dloc.y).source;
    out.source = source;
    out.edges.clear();
    out.sinks.clear();

    int x_lo = static_cast<int>(dloc.x), x_hi = x_lo;
    int y_lo = static_cast<int>(dloc.y), y_hi = y_lo;
    std::vector<RrNodeId> sink_nodes;
    for (std::size_t s : net.sinks) {
      const BlockLoc& l = pl.locs[s];
      sink_nodes.push_back(g.site(l.x, l.y).sink);
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
    auto in_bb = [&](const RrNode& n) {
      return static_cast<int>(n.x_hi) >= x_lo &&
             static_cast<int>(n.x_lo) <= x_hi &&
             static_cast<int>(n.y_hi) >= y_lo &&
             static_cast<int>(n.y_lo) <= y_hi;
    };

    // Sink order: near-to-far from the driver (same keys, same sort); in
    // timing mode the per-connection criticalities are fetched here and
    // the most critical sinks route first, with the near-to-far key
    // breaking criticality ties — both transcribed from route_net_bb.
    std::vector<std::uint32_t> order(sink_nodes.size());
    std::vector<double> sink_keys(sink_nodes.size());
    std::vector<double> sink_crit;
    if (timing) sink_crit.resize(sink_nodes.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
      const double crit = timing ? timing->criticality(net_idx, i) : 0.0;
      if (timing) sink_crit[i] = crit;
      sink_keys[i] = heuristic(source, sink_nodes[i], crit);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (timing && sink_crit[a] != sink_crit[b]) {
                  return sink_crit[a] > sink_crit[b];
                }
                return sink_keys[a] < sink_keys[b];
              });

    // Tree membership plus, in timing mode, each tree node's delay from
    // the source (a plain map standing in for the production
    // Scratch::node_tdel arena), so later searches seed the tree at
    // known = crit * delay-from-source.
    std::vector<RrNodeId> tree_nodes{source};
    std::unordered_set<RrNodeId> in_tree{source};
    std::unordered_map<RrNodeId, double> tdel;
    if (timing) tdel[source] = 0.0;

    std::vector<QItem> heap;
    for (std::uint32_t oi : order) {
      const RrNodeId target = sink_nodes[oi];
      if (in_tree.contains(target)) {
        out.sinks.push_back(target);
        continue;
      }
      const double crit = timing ? sink_crit[oi] : 0.0;
      const double inv_spb = timing ? (1.0 - crit) * spb : 0.0;
      // Per-search relaxation state: plain hash maps.
      std::unordered_map<RrNodeId, double> path_cost;
      std::unordered_map<RrNodeId, RrNodeId> prev;
      heap.clear();
      for (RrNodeId n : tree_nodes) {
        const double known = timing ? crit * tdel.at(n) : 0.0;
        path_cost[n] = known;
        prev[n] = kNoRrNode;
        heap.push_back({known + heuristic(n, target, crit), known, n});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
      bool found = false;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const QItem item = heap.back();
        heap.pop_back();
        const RrNodeId u = item.node;
        if (const auto it = path_cost.find(u);
            it != path_cost.end() && item.known > it->second + 1e-9) {
          continue;  // stale entry
        }
        if (u == target) {
          found = true;
          break;
        }
        // Weighted table A* closes expanded nodes for good (transcribed
        // from the production search core's no_reexpand sentinel).
        if (opt.astar_factor > 1.0) {
          path_cost[u] = -std::numeric_limits<double>::infinity();
        }
        for (const RrEdge& e : g.edges(u, ebuf)) {
          const RrNodeId v = e.to;
          const RrNode vn = g.node(v);
          if (!in_bb(vn)) continue;
          if (vn.type == RrType::kSink && v != target) continue;
          const double new_cost =
              timing ? item.known + crit * node_delay[v] +
                           inv_spb * congestion_cost(v)
                     : item.known + congestion_cost(v);
          const auto it = path_cost.find(v);
          if (it == path_cost.end() || new_cost < it->second - 1e-9) {
            path_cost[v] = new_cost;
            prev[v] = u;
            heap.push_back(
                {new_cost + heuristic(v, target, crit), new_cost, v});
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
      }
      if (!found) {
        for (std::size_t i = 1; i < tree_nodes.size(); ++i) {
          --occ[tree_nodes[i]];
        }
        return false;
      }
      std::vector<std::pair<RrNodeId, RrNodeId>> path;
      RrNodeId n = target;
      while (prev.at(n) != kNoRrNode) {
        path.emplace_back(prev.at(n), n);
        n = prev.at(n);
      }
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        out.edges.push_back(*it);
        if (in_tree.insert(it->second).second) {
          tree_nodes.push_back(it->second);
          if (timing) {
            tdel[it->second] = tdel.at(it->first) + node_delay[it->second];
          }
          ++occ[it->second];
        }
      }
      out.sinks.push_back(target);
    }
    ++occ[source];
    return true;
  }

  void rip_up(const RouteTree& t) {
    if (t.source == kNoRrNode) return;
    --occ[t.source];
    std::unordered_set<RrNodeId> seen;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      if (seen.insert(to).second) --occ[to];
    }
  }

  void update_history() {
    for (RrNodeId i = 0; i < g.node_count(); ++i) {
      if (overused(i)) {
        history[i] += static_cast<float>(
            opt.history_fac * (static_cast<int>(occ[i]) -
                               static_cast<int>(cap[i])));
      }
    }
  }
};

}  // namespace

RoutingResult reference_route_all(const RrGraphView& g, const Placement& pl,
                                  const RouteOptions& opt) {
  RefRouter router(g, pl, opt);
  RoutingResult res;
  res.trees.assign(pl.nets.size(), {});
  std::size_t best_overuse = static_cast<std::size_t>(-1);
  std::size_t best_iter = 0;
  // Overuse history for the hopeless-probe predictor (transcribed from
  // route_all — same window, same slack, same gates).
  std::vector<std::size_t> ou_hist;
  ou_hist.reserve(opt.max_iterations);

  auto touches_overuse = [&](const RouteTree& t) {
    if (t.source == kNoRrNode) return true;
    if (router.overused(t.source)) return true;
    for (const auto& [from, to] : t.edges) {
      (void)from;
      if (router.overused(to)) return true;
    }
    return false;
  };

  std::vector<std::size_t> extra_bb(pl.nets.size(), 0);

  // Timing-driven orchestration, transcribed from route_all: the hook is
  // updated serially at the start of every iteration with the nets
  // (re)routed in the previous one, and once more over the final trees on
  // success so the reported critical path covers the last iteration.
  const bool timing_on = opt.timing_driven && opt.timing_hook != nullptr;
  std::vector<std::size_t> dirty;
  if (timing_on) dirty.reserve(pl.nets.size());

  // Batched-mode state (net_parallel): the oracle transcribes the
  // production scheduler literally — the first-fit 64-color partition
  // over margin-inflated net bounding boxes (levelized overflow above
  // 64 colors), speculative members routed against a frozen occupancy,
  // serial commit/replay in ascending net order — with whole-vector
  // occupancy snapshots standing in for the production scratch overlay.
  // The schedule depends only on the placement, so this serial
  // transcription is the committed meaning of "bit-identical at any
  // thread count".
  std::vector<std::vector<std::size_t>> batches;
  std::vector<std::size_t> live;

  if (opt.net_parallel) {
    constexpr int kSchedMargin = 1;  // must match route_all
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

  auto fail_out = [&]() {
    res.success = false;
    res.overused_nodes = router.overused_count();
    return res;
  };

  for (std::size_t iter = 1; iter <= opt.max_iterations; ++iter) {
    res.iterations = iter;
    if (timing_on) {
      opt.timing_hook->update(g, res.trees, dirty, iter);
      dirty.clear();
    }
    router.begin_iteration(iter);
    if (!opt.net_parallel) {
      for (std::size_t n = 0; n < pl.nets.size(); ++n) {
        if (iter > 1) {
          if (router.overused_count() == 0) break;
          if (!touches_overuse(res.trees[n])) continue;
          router.rip_up(res.trees[n]);
          res.trees[n] = RouteTree{};
          if (iter > 12) {
            extra_bb[n] = std::min<std::size_t>(extra_bb[n] + 2,
                                                g.nx() + g.ny());
          }
        }
        if (!router.route_net(n, pl.nets[n], res.trees[n], extra_bb[n])) {
          return fail_out();
        }
        if (timing_on) dirty.push_back(n);
      }
    } else {
      // The placement-time partition computed above; rip membership is
      // decided per batch against the live occupancy.
      for (const auto& batch : batches) {
        if (iter > 1 && router.overused_count() == 0) break;
        // Rip stage (net order): membership decided against the live
        // occupancy, exactly like the serial loop's per-net check.
        live.clear();
        for (std::size_t n : batch) {
          if (iter > 1) {
            if (!touches_overuse(res.trees[n])) continue;
            router.rip_up(res.trees[n]);
            res.trees[n] = RouteTree{};
            if (iter > 12) {
              extra_bb[n] = std::min<std::size_t>(extra_bb[n] + 2,
                                                  g.nx() + g.ny());
            }
          }
          live.push_back(n);
        }
        if (live.empty()) continue;
        if (live.size() == 1) {
          // Singleton fast path, mirrored from route_all: routed
          // directly against the live state, no speculation.
          const std::size_t n = live[0];
          if (!router.route_net(n, pl.nets[n], res.trees[n], extra_bb[n])) {
            return fail_out();
          }
          if (timing_on) dirty.push_back(n);
          continue;
        }

        // Route stage: every member speculates against the occupancy
        // frozen at batch start (snapshot/restore = the production
        // read-only shared state + per-net overlay), with no
        // unconstrained retry — window escapes go to the serial replay.
        struct Member {
          RouteTree tree;
          bool ok = false;
        };
        std::vector<Member> members(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) {
          Member& m = members[i];
          const std::vector<std::uint32_t> snapshot = router.occ;
          m.ok = router.route_net_bb(live[i], pl.nets[live[i]], m.tree,
                                     opt.bb_margin + extra_bb[live[i]]);
          router.occ = snapshot;
        }

        // Commit stage (ascending net order). A member re-routes serially
        // against the live state — with retry semantics — when its
        // speculative route escaped the window, claimed a node an earlier
        // member of this batch committed, or the debug hook fires.
        std::unordered_set<RrNodeId> committed;
        for (std::size_t i = 0; i < live.size(); ++i) {
          const std::size_t n = live[i];
          Member& m = members[i];
          bool replay = !m.ok;
          if (!replay && opt.debug_replay_every != 0 &&
              (i + 1) % opt.debug_replay_every == 0) {
            replay = true;
          }
          if (!replay) {
            bool hit = committed.contains(m.tree.source);
            for (std::size_t e = 0; !hit && e < m.tree.edges.size(); ++e) {
              hit = committed.contains(m.tree.edges[e].second);
            }
            replay = hit;
          }
          if (!replay) {
            committed.insert(m.tree.source);
            ++router.occ[m.tree.source];
            for (const auto& [from, to] : m.tree.edges) {
              (void)from;
              committed.insert(to);
              ++router.occ[to];
            }
            res.trees[n] = std::move(m.tree);
          } else {
            if (!router.route_net(n, pl.nets[n], res.trees[n], extra_bb[n])) {
              return fail_out();
            }
            committed.insert(res.trees[n].source);
            for (const auto& [from, to] : res.trees[n].edges) {
              (void)from;
              committed.insert(to);
            }
          }
          if (timing_on) dirty.push_back(n);
        }
      }
    }
    res.overused_nodes = router.overused_count();
    if (res.overused_nodes == 0) {
      res.success = true;
      break;
    }
    if (res.overused_nodes < best_overuse) {
      best_overuse = res.overused_nodes;
      best_iter = iter;
    } else if (best_overuse > 20 && iter > best_iter + 15 &&
               res.overused_nodes > best_overuse * 95 / 100) {
      break;
    }
    // Infeasibility predictor, both rules mirrored from route_all: the
    // iteration-12 structural-congestion checkpoint, and the linear
    // overuse forecast over a 16-iteration window that aborts when the
    // projected convergence iteration overshoots the budget by 50%.
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
    router.update_history();
    router.pres_fac =
        std::min(router.pres_fac * opt.pres_fac_mult, opt.pres_fac_max);
  }

  if (res.success && timing_on) {
    // Final analysis over the last iteration's reroutes so the reported
    // critical path and slack describe the returned trees.
    opt.timing_hook->update(g, res.trees, dirty, res.iterations + 1);
    dirty.clear();
    res.critical_path_s = opt.timing_hook->critical_path();
    res.worst_slack_s = opt.timing_hook->worst_slack();
  }
  if (res.success) {
    std::unordered_set<RrNodeId> counted;
    for (const auto& t : res.trees) {
      for (const auto& [from, to] : t.edges) {
        (void)from;
        const RrNode& n = g.node(to);
        if (n.type == RrType::kChanX || n.type == RrType::kChanY) {
          if (counted.insert(to).second) {
            ++res.wire_segments_used;
            res.total_wire_tiles += n.length;
          }
        }
      }
    }
  }
  return res;
}

std::string diff_routing(const RoutingResult& a, const RoutingResult& b) {
  std::ostringstream os;
  if (a.success != b.success) {
    os << "success " << a.success << " vs " << b.success;
    return os.str();
  }
  if (a.iterations != b.iterations) {
    os << "iterations " << a.iterations << " vs " << b.iterations;
    return os.str();
  }
  if (a.overused_nodes != b.overused_nodes) {
    os << "overused_nodes " << a.overused_nodes << " vs " << b.overused_nodes;
    return os.str();
  }
  if (a.trees.size() != b.trees.size()) {
    os << "tree count " << a.trees.size() << " vs " << b.trees.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    const RouteTree& ta = a.trees[i];
    const RouteTree& tb = b.trees[i];
    if (ta.source != tb.source) {
      os << "net " << i << ": source " << ta.source << " vs " << tb.source;
      return os.str();
    }
    if (ta.edges != tb.edges) {
      os << "net " << i << ": edge lists differ (" << ta.edges.size()
         << " vs " << tb.edges.size() << " edges)";
      for (std::size_t e = 0;
           e < std::min(ta.edges.size(), tb.edges.size()); ++e) {
        if (ta.edges[e] != tb.edges[e]) {
          os << "; first diff at edge " << e << ": (" << ta.edges[e].first
             << "->" << ta.edges[e].second << ") vs (" << tb.edges[e].first
             << "->" << tb.edges[e].second << ")";
          break;
        }
      }
      return os.str();
    }
    if (ta.sinks != tb.sinks) {
      os << "net " << i << ": sink lists differ";
      return os.str();
    }
  }
  if (a.wire_segments_used != b.wire_segments_used) {
    os << "wire_segments_used " << a.wire_segments_used << " vs "
       << b.wire_segments_used;
    return os.str();
  }
  if (a.total_wire_tiles != b.total_wire_tiles) {
    os << "total_wire_tiles " << a.total_wire_tiles << " vs "
       << b.total_wire_tiles;
    return os.str();
  }
  if (a.critical_path_s != b.critical_path_s) {
    os << "critical_path_s " << a.critical_path_s << " vs "
       << b.critical_path_s;
    return os.str();
  }
  if (a.worst_slack_s != b.worst_slack_s) {
    os << "worst_slack_s " << a.worst_slack_s << " vs " << b.worst_slack_s;
    return os.str();
  }
  return {};
}

}  // namespace nemfpga::verify
