#include "arch/lookahead.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "util/thread_pool.hpp"

namespace nemfpga {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Tables the sample Dijkstras fold into: enough to balance the build
/// over the pool, few enough that they stay small next to the graph.
constexpr std::size_t kFoldChunks = 16;

int node_class(const RrNode& n) {
  switch (n.type) {
    case RrType::kChanX:
      return n.increasing ? 0 : 1;
    case RrType::kChanY:
      return n.increasing ? 2 : 3;
    default:
      return 4;
  }
}

/// The tile a search "continues from" after paying for the node: a wire's
/// exit end (where its switch-box fanout lives), any other node's origin.
std::pair<int, int> ref_point(const RrNode& n) {
  if (n.type == RrType::kChanX && n.increasing) return {n.x_hi, n.y_lo};
  if (n.type == RrType::kChanY && n.increasing) return {n.x_lo, n.y_hi};
  return {n.x_lo, n.y_lo};
}

}  // namespace

std::int32_t RouteLookahead::node_key(const RrNode& n) const {
  const auto [rx, ry] = ref_point(n);
  return static_cast<std::int32_t>(
      node_class(n) * static_cast<std::int64_t>(span_) -
      static_cast<std::int64_t>(rx) * sy_ - ry);
}

RouteLookahead::RouteLookahead(const ArchParams& arch, std::size_t grid_nx,
                               std::size_t grid_ny,
                               const DelayProfile* delay) {
  const auto t0 = std::chrono::steady_clock::now();
  const int nx = static_cast<int>(grid_nx);
  const int ny = static_cast<int>(grid_ny);
  off_x_ = nx + 1;
  off_y_ = ny + 1;
  const int sx = 2 * off_x_ + 1;
  sy_ = 2 * off_y_ + 1;
  const std::size_t span = static_cast<std::size_t>(sx) * sy_;
  span_ = span;

  // Distances are measured on a thin canonical graph instead of the real
  // one: W = 2L covers every (direction, stagger-phase) pair exactly once
  // — all wires starting at a given channel position share identical
  // geometry (the phase is position-determined) and every wire end has
  // the same three switch-box moves at any width, so base-cost distances
  // are track-collapsible. With fc = 1.0 the thin pin connectivity is a
  // superset of any real fc pattern, hence every real-graph path maps to
  // an equal-cost thin path: thin distance <= real distance, which keeps
  // the table admissible while making the build W-independent and cheap
  // enough to run once per channel-width probe.
  ArchParams thin_arch = arch;
  thin_arch.W = 2 * std::max<std::size_t>(1, thin_arch.L);
  thin_arch.fc_in = 1.0;
  thin_arch.fc_out = 1.0;
  // Full candidate fanout: at border positions the "wires starting here"
  // sets mix full wires with clipped stubs, so a single Wilton-preferred
  // pick (or an fc-capped pin subset) is not geometry-complete and the
  // thin graph could miss a cheap stub the real W happens to select.
  // Dense fanout makes thin connectivity a superset of every real pick.
  thin_arch.dense_fanout = true;
  const RrGraph g(thin_arch, grid_nx, grid_ny);
  const std::size_t n = g.node_count();

  // Thin-graph node keys (the same folding) for the distance fold below.
  std::vector<std::int32_t> thin_key(n);
  for (RrNodeId i = 0; i < n; ++i) thin_key[i] = node_key(g.node(i));

  // Reverse CSR of the thin graph, for backward Dijkstra from each sample
  // sink.
  std::vector<std::uint32_t> roff(n + 1, 0);
  for (RrNodeId u = 0; u < n; ++u) {
    for (const RrEdge& e : g.edges(u)) ++roff[e.to + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) roff[i] += roff[i - 1];
  std::vector<RrNodeId> rpred(g.edge_count());
  {
    std::vector<std::uint32_t> fill(roff.begin(), roff.end() - 1);
    for (RrNodeId u = 0; u < n; ++u) {
      for (const RrEdge& e : g.edges(u)) rpred[fill[e.to]++] = u;
    }
  }

  // Exhaustive target sampling: one backward Dijkstra per sink-bearing
  // tile (logic and IO rows alike). The folded table is then the exact
  // per-offset minimum over every realizable (node, target) pair — a
  // true lower bound by construction, with no sampled-context gaps (a
  // sparse 9-sample fold misses the cheaper border contexts: clipped
  // stub wires cost base 1/tile where interior hops quantize to L, and
  // the IO rows at 0 and n+1 are never sampled at all, both of which
  // showed up as off-by-one admissibility violations). The thin graph
  // keeps this cheap: O(tiles) Dijkstras on an O(tiles * L)-node graph,
  // in parallel, independent of W — and the finished table is shared
  // across every channel-width probe (RouteOptions::lookahead).
  std::vector<std::pair<int, int>> samples;
  for (int xi = 0; xi <= nx + 1; ++xi) {
    for (int yi = 0; yi <= ny + 1; ++yi) {
      const bool border_x = (xi == 0 || xi == nx + 1);
      const bool border_y = (yi == 0 || yi == ny + 1);
      if (border_x && border_y) continue;  // empty corner cells
      if (g.site(xi, yi).sink != kNoRrNode) samples.emplace_back(xi, yi);
    }
  }

  // One backward Dijkstra per sample with the given per-node entering
  // costs, folded into a per-class offset table. dist[u] is the remaining
  // cost *after* paying for u, so the relaxation of reverse edge
  // (u -> pred) adds cost(u). The base table and the delay table run the
  // identical machinery over different weights; `chamfer_step` is the
  // per-tile increment of the unobserved-cell fill (1 base-cost unit for
  // the base table; 0 for the delay table, where any positive step could
  // only raise an extrapolated cell above a true remaining delay), and
  // `manhattan_fallback` selects the degenerate-class filler (Manhattan
  // for base cost, 0 — trivially a lower bound — for delay).
  auto build_table = [&](const std::vector<double>& cost, float chamfer_step,
                         bool manhattan_fallback) {
    // The samples fold into a fixed number of chunk tables, each chunk a
    // contiguous run of samples sharing one distance array and heap, so
    // the transient memory is bounded by the chunk count, not the tile
    // count. Deterministic at any thread count: the per-cell minimum is
    // exact and order-independent, and each Dijkstra is pure.
    const std::size_t chunks = std::min(samples.size(), kFoldChunks);
    std::vector<std::vector<float>> folds(chunks);
    parallel_for(chunks, [&](std::size_t c) {
      std::vector<float> tab(kClasses * span, kInf);
      std::vector<double> dist(n);
      using Q = std::pair<double, RrNodeId>;
      std::priority_queue<Q, std::vector<Q>, std::greater<>> heap;
      const std::size_t first = c * samples.size() / chunks;
      const std::size_t last = (c + 1) * samples.size() / chunks;
      for (std::size_t si = first; si < last; ++si) {
        const auto [tx, ty] = samples[si];
        const RrNodeId sink = g.site(tx, ty).sink;
        std::fill(dist.begin(), dist.end(),
                  std::numeric_limits<double>::infinity());
        dist[sink] = 0.0;
        heap.push({0.0, sink});
        while (!heap.empty()) {
          const auto [d, u] = heap.top();
          heap.pop();
          if (d > dist[u]) continue;
          const double du = d + cost[u];
          for (std::uint32_t k = roff[u]; k < roff[u + 1]; ++k) {
            const RrNodeId p = rpred[k];
            if (du < dist[p]) {
              dist[p] = du;
              heap.push({du, p});
            }
          }
        }
        const std::int32_t tkey = target_key(tx, ty);
        for (RrNodeId u = 0; u < n; ++u) {
          if (!std::isfinite(dist[u])) continue;
          // Round toward zero so the float table never exceeds the true
          // distance (admissibility survives the narrowing).
          float f = static_cast<float>(dist[u]);
          if (static_cast<double>(f) > dist[u]) f = std::nextafterf(f, 0.0f);
          float& cell = tab[static_cast<std::size_t>(thin_key[u] + tkey)];
          cell = std::min(cell, f);
        }
      }
      folds[c] = std::move(tab);
    });
    std::vector<float> out(kClasses * span, kInf);
    for (const auto& tab : folds) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::min(out[i], tab[i]);
      }
    }

    // Fill offsets no (node, target) pair realizes by a two-pass L1
    // chamfer that only writes unobserved cells. With exhaustive target
    // sampling such offsets can never be queried at runtime — every real
    // (node class, ref point) exists in the thin graph too, and every
    // routed sink lives on a sampled tile — so the fill is a smooth
    // extrapolation for safety, not part of the admissibility argument.
    std::vector<char> observed(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      observed[i] = out[i] < kInf;
    }
    for (int c = 0; c < kClasses; ++c) {
      float* t = out.data() + c * span;
      const char* obs = observed.data() + c * span;
      auto at = [&](int dx, int dy) -> float& {
        return t[static_cast<std::size_t>(dx) * sy_ + dy];
      };
      for (int dx = 0; dx < sx; ++dx) {
        for (int dy = 0; dy < sy_; ++dy) {
          if (obs[static_cast<std::size_t>(dx) * sy_ + dy]) continue;
          float v = at(dx, dy);
          if (dx > 0) v = std::min(v, at(dx - 1, dy) + chamfer_step);
          if (dy > 0) v = std::min(v, at(dx, dy - 1) + chamfer_step);
          at(dx, dy) = v;
        }
      }
      for (int dx = sx - 1; dx >= 0; --dx) {
        for (int dy = sy_ - 1; dy >= 0; --dy) {
          if (obs[static_cast<std::size_t>(dx) * sy_ + dy]) continue;
          float v = at(dx, dy);
          if (dx + 1 < sx) v = std::min(v, at(dx + 1, dy) + chamfer_step);
          if (dy + 1 < sy_) v = std::min(v, at(dx, dy + 1) + chamfer_step);
          at(dx, dy) = v;
        }
      }
    }
    // A class with no nodes at all (degenerate fabrics) falls back to
    // plain Manhattan distance (base) or zero (delay).
    for (int c = 0; c < kClasses; ++c) {
      float* t = out.data() + c * span;
      for (int dx = 0; dx < sx; ++dx) {
        for (int dy = 0; dy < sy_; ++dy) {
          float& v = t[static_cast<std::size_t>(dx) * sy_ + dy];
          if (v == kInf) {
            v = manhattan_fallback
                    ? static_cast<float>(std::abs(dx - off_x_) +
                                         std::abs(dy - off_y_))
                    : 0.0f;
          }
        }
      }
    }
    return out;
  };

  std::vector<double> node_cost(n);
  for (RrNodeId i = 0; i < n; ++i) node_cost[i] = route_base_cost(g.node(i));
  table_ = build_table(node_cost, 1.0f, /*manhattan_fallback=*/true);
  if (delay) {
    for (RrNodeId i = 0; i < n; ++i) {
      node_cost[i] = route_delay_cost(g.node(i), *delay);
    }
    delay_table_ = build_table(node_cost, 0.0f, /*manhattan_fallback=*/false);
  }

  build_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
}

}  // namespace nemfpga
