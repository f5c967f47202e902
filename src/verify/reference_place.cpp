// Naive placement-cost oracle: the full-rescan twin of place.hpp's
// NetCostModel. No boxes, no edge-occupancy counts, no pending deltas —
// every query walks every pin of the nets it is asked about. The
// incremental engine derives each net cost from the final integer box
// coordinates only, so the two must agree *bitwise* per net; the tracked
// total (a sum of per-move deltas) drifts from the recomputed total by at
// most the floating-point accumulation bound the differential suite pins
// (tests/prop/prop_place_diff.cpp, <= 1e-9 relative). One step of the
// region anneal is transcribed the same way: serial regions, full
// rescans, occupancy by search.
#include <algorithm>
#include <cmath>

#include "verify/oracles.hpp"

namespace nemfpga::verify {
namespace {

/// Independent transcription of the VPR fanout correction used by the
/// production kernel (q(terminals) [Betz 99]).
double ref_q_factor(std::size_t terminals) {
  static constexpr double kTable[] = {1.0,    1.0,    1.0,    1.0,    1.0828,
                                      1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
                                      1.4493, 1.4974, 1.5455, 1.5937, 1.6418,
                                      1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
                                      1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
                                      2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
                                      2.2334};
  if (terminals < std::size(kTable)) return kTable[terminals];
  return 2.2334 + 0.0616 * (static_cast<double>(terminals) - 30.0) / 5.0;
}

/// Regions along an axis of n sites: each at least kAnnealRegionSide
/// wide with four sites to spare for the cut swing.
std::size_t ref_regions(std::size_t n) {
  if (n < 2 * kAnnealRegionSide + 4) return 1;
  return (n - 4) / kAnnealRegionSide;
}

/// First site of each region along the axis in step `step`, then n + 1.
/// The inner cuts move together by an offset that keeps the first and
/// the last region at least kAnnealRegionSide wide.
std::vector<std::size_t> ref_starts(std::size_t n, std::size_t step,
                                    std::size_t axis) {
  const std::size_t p = ref_regions(n);
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k <= p; ++k) starts.push_back(1 + k * n / p);
  if (p == 1) return starts;
  const long long side = static_cast<long long>(kAnnealRegionSide);
  const long long lowest = side - static_cast<long long>(starts[1] - 1);
  const long long highest =
      static_cast<long long>(n + 1 - starts[p - 1]) - side;
  const auto choices = static_cast<std::uint64_t>(highest - lowest + 1);
  const long long offset =
      lowest + static_cast<long long>(Rng(2 * step + axis).next_u64() %
                                      choices);
  for (std::size_t k = 1; k < p; ++k) {
    starts[k] = static_cast<std::size_t>(
        static_cast<long long>(starts[k]) + offset);
  }
  return starts;
}

/// The region along the axis that coordinate v (0 and n + 1 being the IO
/// ring) falls in.
std::size_t ref_region_of(const std::vector<std::size_t>& starts,
                          std::size_t v) {
  std::size_t k = 0;
  while (k + 2 < starts.size() && starts[k + 1] <= v) ++k;
  return k;
}

bool ref_has_pin(const PlacedNet& n, std::size_t blk) {
  if (n.driver == blk) return true;
  for (std::size_t s : n.sinks) {
    if (s == blk) return true;
  }
  return false;
}

bool same_site(const BlockLoc& a, const BlockLoc& b) {
  return a.x == b.x && a.y == b.y && a.sub == b.sub;
}

}  // namespace

ReferenceNetBox reference_net_box(const PlacedNet& n,
                                  const std::vector<BlockLoc>& locs) {
  ReferenceNetBox b;
  b.x_lo = b.x_hi = locs[n.driver].x;
  b.y_lo = b.y_hi = locs[n.driver].y;
  for (std::size_t s : n.sinks) {
    b.x_lo = std::min(b.x_lo, locs[s].x);
    b.x_hi = std::max(b.x_hi, locs[s].x);
    b.y_lo = std::min(b.y_lo, locs[s].y);
    b.y_hi = std::max(b.y_hi, locs[s].y);
  }
  return b;
}

double reference_net_cost(const PlacedNet& n, double weight,
                          const std::vector<BlockLoc>& locs) {
  const ReferenceNetBox b = reference_net_box(n, locs);
  const double span = static_cast<double>(b.x_hi - b.x_lo) +
                      static_cast<double>(b.y_hi - b.y_lo);
  return weight * ref_q_factor(n.sinks.size() + 1) * span;
}

double reference_placement_cost(const std::vector<PlacedNet>& nets,
                                const std::vector<double>& weights,
                                const std::vector<BlockLoc>& locs) {
  double cost = 0.0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    cost += reference_net_cost(nets[n], weights[n], locs);
  }
  return cost;
}

AnnealStepTrace reference_anneal_step(const Packing& p, const ArchParams& arch,
                                      const Placement& pl,
                                      const std::vector<double>& weights,
                                      std::uint64_t seed,
                                      const AnnealStep& step) {
  const std::size_t nx = pl.nx, ny = pl.ny;
  const std::size_t n_blocks = pl.locs.size();
  const std::vector<std::size_t> xs = ref_starts(nx, step.index, 0);
  const std::vector<std::size_t> ys = ref_starts(ny, step.index, 1);
  const std::size_t px = xs.size() - 1, py = ys.size() - 1;
  const std::size_t regions = px * py;
  auto region_of = [&](std::size_t x, std::size_t y) {
    return ref_region_of(ys, y) * px + ref_region_of(xs, x);
  };

  // IO sites clockwise: bottom, right, top, left.
  std::vector<BlockLoc> io;
  for (std::size_t x = 1; x <= nx; ++x) io.push_back({x, 0, 0});
  for (std::size_t y = 1; y <= ny; ++y) io.push_back({nx + 1, y, 0});
  for (std::size_t x = 1; x <= nx; ++x) io.push_back({x, ny + 1, 0});
  for (std::size_t y = 1; y <= ny; ++y) io.push_back({0, y, 0});

  std::vector<std::vector<std::size_t>> blocks(regions);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    blocks[region_of(pl.locs[b].x, pl.locs[b].y)].push_back(b);
  }
  std::vector<std::size_t> share(regions);
  std::size_t left = step.moves;
  for (std::size_t r = 0; r < regions; ++r) {
    share[r] = step.moves * blocks[r].size() / n_blocks;
    left -= share[r];
  }
  for (std::size_t r = 0; r < regions && left > 0; ++r) {
    if (blocks[r].empty()) continue;
    ++share[r];
    --left;
  }

  AnnealStepTrace out;
  out.locs = pl.locs;
  out.deltas.resize(regions);
  const std::uint64_t base = Rng::from_stream(seed, step.index).next_u64();
  const auto rr = static_cast<std::size_t>(std::max(1.0, step.range));
  for (std::size_t r = 0; r < regions; ++r) {
    Rng rng = regions == 1 ? Rng(seed) : Rng::from_stream(base, r);
    std::vector<BlockLoc> locs = pl.locs;
    const std::size_t x_lo = xs[r % px], x_hi = xs[r % px + 1] - 1;
    const std::size_t y_lo = ys[r / px], y_hi = ys[r / px + 1] - 1;
    std::vector<std::size_t> my_io;
    for (std::size_t s = 0; s < io.size(); ++s) {
      if (region_of(io[s].x, io[s].y) == r) my_io.push_back(s);
    }
    auto pick = [&](std::size_t cur, std::size_t lo, std::size_t hi) {
      const std::size_t from = std::max(lo, cur > rr ? cur - rr : 1);
      const std::size_t to = std::min(hi, cur + rr);
      return from + rng.uniform_int(to - from + 1);
    };
    for (std::size_t m = 0; m < share[r]; ++m) {
      ++out.counters.proposed;
      const std::size_t a = blocks[r][rng.uniform_int(blocks[r].size())];
      const BlockLoc src = locs[a];
      BlockLoc dest;
      if (p.blocks[a].type == PackedType::kLogic) {
        dest.x = pick(src.x, x_lo, x_hi);
        dest.y = pick(src.y, y_lo, y_hi);
      } else {
        dest = io[my_io[rng.uniform_int(my_io.size())]];
        dest.sub = rng.uniform_int(arch.io_per_pad);
      }
      if (same_site(dest, src)) continue;
      std::size_t b = n_blocks;
      for (std::size_t c = 0; c < n_blocks; ++c) {
        if (same_site(locs[c], dest)) b = c;
      }
      std::vector<std::size_t> touched;
      for (std::size_t n = 0; n < pl.nets.size(); ++n) {
        if (ref_has_pin(pl.nets[n], a)) touched.push_back(n);
      }
      if (b != n_blocks) {
        for (std::size_t n = 0; n < pl.nets.size(); ++n) {
          if (ref_has_pin(pl.nets[n], b) && !ref_has_pin(pl.nets[n], a)) {
            touched.push_back(n);
          }
        }
      }
      std::vector<double> before;
      for (std::size_t n : touched) {
        before.push_back(reference_net_cost(pl.nets[n], weights[n], locs));
      }
      locs[a] = dest;
      if (b != n_blocks) locs[b] = src;
      double delta = 0.0;
      for (std::size_t i = 0; i < touched.size(); ++i) {
        const std::size_t n = touched[i];
        delta += reference_net_cost(pl.nets[n], weights[n], locs) - before[i];
      }
      out.deltas[r].push_back(delta);
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / step.t)) {
        ++out.counters.accepted;
      } else {
        locs[a] = src;
        if (b != n_blocks) locs[b] = dest;
      }
    }
    for (std::size_t b : blocks[r]) out.locs[b] = locs[b];
  }
  return out;
}

}  // namespace nemfpga::verify
