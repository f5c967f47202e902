#include "place/place.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "timing/criticality.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define NF_ALWAYS_INLINE __attribute__((always_inline))
#else
#define NF_ALWAYS_INLINE
#endif

namespace nemfpga {
namespace {

/// VPR's bounding-box fanout correction q(terminals) [Betz 99]: accounts
/// for the underestimate of HPWL on multi-terminal nets.
double q_factor(std::size_t terminals) {
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

/// Fold coordinate v into a box axis being scanned from scratch.
inline void scan_dim(std::uint16_t v, std::uint16_t& lo, std::uint16_t& hi,
                     std::uint16_t& on_lo, std::uint16_t& on_hi) {
  if (v < lo) {
    lo = v;
    on_lo = 1;
  } else if (v == lo) {
    ++on_lo;
  }
  if (v > hi) {
    hi = v;
    on_hi = 1;
  } else if (v == hi) {
    ++on_hi;
  }
}

/// Move one pin of a box from `o` to `c` along one axis, maintaining the
/// edge-occupancy counts. Returns false when the pin was the last one on
/// an edge and moved inward — the new edge is unknown and the caller must
/// rescan the net. New position is folded in before the old one is
/// removed so a pin passing itself never empties a live edge.
inline bool move_dim(std::uint16_t o, std::uint16_t c, std::uint16_t& lo,
                     std::uint16_t& hi, std::uint16_t& on_lo,
                     std::uint16_t& on_hi) {
  if (o == c) return true;
  scan_dim(c, lo, hi, on_lo, on_hi);
  if (o == lo && --on_lo == 0) return false;
  if (o == hi && --on_hi == 0) return false;
  return true;
}

/// True when `blk` is a pin of net `n` (driver or one of the sorted
/// sinks).
inline bool net_has(const PlacedNet& n, std::size_t blk) {
  return blk == n.driver ||
         std::binary_search(n.sinks.begin(), n.sinks.end(), blk);
}

/// Flat-buffer capacity for the branchless box scan; bigger nets take
/// the sequential fold (identical result, just not vectorizable).
constexpr std::size_t kScanBuf = 128;

/// Identical box geometry and edge counts (the 16 bytes before cost).
/// The eight uint16 fields are contiguous with no padding, so this is
/// two 8-byte word compares.
inline bool same_geometry(const NetCostModel::Box& p,
                          const NetCostModel::Box& q) {
  static_assert(offsetof(NetCostModel::Box, cost) == 16);
  return std::memcmp(&p, &q, 16) == 0;
}

/// Location strictly inside the box on both axes: moving this pin there
/// (or away from there) cannot change the box or its edge counts.
inline bool strictly_inside(const BlockLoc& l, const NetCostModel::Box& b) {
  const std::uint16_t x = static_cast<std::uint16_t>(l.x);
  const std::uint16_t y = static_cast<std::uint16_t>(l.y);
  return b.x_lo < x && x < b.x_hi && b.y_lo < y && y < b.y_hi;
}

/// Full box scan of one net with up to two pin substitutions applied
/// (`a` at `new_a`, `b` at `new_b`). Free function in this TU so it
/// inlines into the propose() hot loop.
inline NetCostModel::Box full_scan(const PlacedNet& n,
                                   const std::vector<BlockLoc>& locs,
                                   std::size_t a, const BlockLoc& new_a,
                                   std::size_t b, const BlockLoc& new_b) {
  auto loc = [&](std::size_t blk) -> const BlockLoc& {
    if (blk == a) return new_a;
    if (blk == b) return new_b;
    return locs[blk];
  };
  NetCostModel::Box box;
  // The sequential scan_dim fold leaves on_lo == |{pins == final lo}|
  // (each new minimum resets the count, equal pins increment it), so a
  // branchless two-pass derivation — min/max sweep, then equality count
  // — produces the identical box without the fold's data-dependent
  // branches (measured faster even on the typical 2-4 pin net here).
  std::uint16_t xs[kScanBuf], ys[kScanBuf];
  const std::size_t pins = n.sinks.size() + 1;
  if (pins <= kScanBuf) {
    const BlockLoc& d = loc(n.driver);
    xs[0] = static_cast<std::uint16_t>(d.x);
    ys[0] = static_cast<std::uint16_t>(d.y);
    for (std::size_t i = 0; i < n.sinks.size(); ++i) {
      const BlockLoc& l = loc(n.sinks[i]);
      xs[i + 1] = static_cast<std::uint16_t>(l.x);
      ys[i + 1] = static_cast<std::uint16_t>(l.y);
    }
    std::uint16_t xlo = xs[0], xhi = xs[0], ylo = ys[0], yhi = ys[0];
    for (std::size_t i = 1; i < pins; ++i) {
      xlo = std::min(xlo, xs[i]);
      xhi = std::max(xhi, xs[i]);
      ylo = std::min(ylo, ys[i]);
      yhi = std::max(yhi, ys[i]);
    }
    std::uint16_t cxl = 0, cxh = 0, cyl = 0, cyh = 0;
    for (std::size_t i = 0; i < pins; ++i) {
      cxl = static_cast<std::uint16_t>(cxl + (xs[i] == xlo));
      cxh = static_cast<std::uint16_t>(cxh + (xs[i] == xhi));
      cyl = static_cast<std::uint16_t>(cyl + (ys[i] == ylo));
      cyh = static_cast<std::uint16_t>(cyh + (ys[i] == yhi));
    }
    box.x_lo = xlo;
    box.x_hi = xhi;
    box.y_lo = ylo;
    box.y_hi = yhi;
    box.on_x_lo = cxl;
    box.on_x_hi = cxh;
    box.on_y_lo = cyl;
    box.on_y_hi = cyh;
    return box;
  }
  const BlockLoc& d = loc(n.driver);
  box.x_lo = box.x_hi = static_cast<std::uint16_t>(d.x);
  box.y_lo = box.y_hi = static_cast<std::uint16_t>(d.y);
  box.on_x_lo = box.on_x_hi = box.on_y_lo = box.on_y_hi = 1;
  for (std::size_t s : n.sinks) {
    const BlockLoc& l = loc(s);
    scan_dim(static_cast<std::uint16_t>(l.x), box.x_lo, box.x_hi, box.on_x_lo,
             box.on_x_hi);
    scan_dim(static_cast<std::uint16_t>(l.y), box.y_lo, box.y_hi, box.on_y_lo,
             box.on_y_hi);
  }
  return box;
}

/// Geometry-only scan with no pin substitution — the in-place
/// apply_swap path scans already-mutated locations, so the two per-pin
/// substitution compares drop out of the gather, and the annealer never
/// consults the edge-occupancy counts (they exist for move_dim, which
/// only propose() runs), so the equality count pass drops out too.
/// Counts are left zero.
inline NetCostModel::Box direct_scan(const PlacedNet& n,
                                     const std::vector<BlockLoc>& locs) {
  NetCostModel::Box box;
  box.on_x_lo = box.on_x_hi = box.on_y_lo = box.on_y_hi = 0;
  std::uint16_t xs[kScanBuf], ys[kScanBuf];
  const std::size_t pins = n.sinks.size() + 1;
  if (pins <= kScanBuf) {
    const BlockLoc& d = locs[n.driver];
    xs[0] = static_cast<std::uint16_t>(d.x);
    ys[0] = static_cast<std::uint16_t>(d.y);
    for (std::size_t i = 0; i < n.sinks.size(); ++i) {
      const BlockLoc& l = locs[n.sinks[i]];
      xs[i + 1] = static_cast<std::uint16_t>(l.x);
      ys[i + 1] = static_cast<std::uint16_t>(l.y);
    }
    std::uint16_t xlo = xs[0], xhi = xs[0], ylo = ys[0], yhi = ys[0];
    for (std::size_t i = 1; i < pins; ++i) {
      xlo = std::min(xlo, xs[i]);
      xhi = std::max(xhi, xs[i]);
      ylo = std::min(ylo, ys[i]);
      yhi = std::max(yhi, ys[i]);
    }
    box.x_lo = xlo;
    box.x_hi = xhi;
    box.y_lo = ylo;
    box.y_hi = yhi;
    return box;
  }
  const BlockLoc& d = locs[n.driver];
  box.x_lo = box.x_hi = static_cast<std::uint16_t>(d.x);
  box.y_lo = box.y_hi = static_cast<std::uint16_t>(d.y);
  std::uint16_t c0 = 1, c1 = 1, c2 = 1, c3 = 1;
  for (std::size_t s : n.sinks) {
    const BlockLoc& l = locs[s];
    scan_dim(static_cast<std::uint16_t>(l.x), box.x_lo, box.x_hi, c0, c1);
    scan_dim(static_cast<std::uint16_t>(l.y), box.y_lo, box.y_hi, c2, c3);
  }
  return box;
}

}  // namespace

NetCostModel::NetCostModel(const std::vector<PlacedNet>* nets,
                           std::size_t n_blocks)
    : nets_(nets) {
  weight_.assign(nets_->size(), 1.0);
  wq_.resize(nets_->size());
  for (std::size_t n = 0; n < nets_->size(); ++n) {
    wq_[n] = weight_[n] * q_factor((*nets_)[n].sinks.size() + 1);
  }
  block_nets_.assign(n_blocks, {});
  for (std::size_t n = 0; n < nets_->size(); ++n) {
    const PlacedNet& pn = (*nets_)[n];
    block_nets_[pn.driver].push_back(n);
    for (std::size_t s : pn.sinks) block_nets_[s].push_back(n);
  }
}

void NetCostModel::set_weights(std::vector<double> w) {
  if (w.size() != nets_->size()) {
    throw std::logic_error("NetCostModel: weight count mismatch");
  }
  weight_ = std::move(w);
  for (std::size_t n = 0; n < nets_->size(); ++n) {
    wq_[n] = weight_[n] * q_factor((*nets_)[n].sinks.size() + 1);
  }
}

void NetCostModel::finish_cost(Box& box, std::size_t net) const {
  const double span = static_cast<double>(box.x_hi - box.x_lo) +
                      static_cast<double>(box.y_hi - box.y_lo);
  box.cost = wq_[net] * span;
}

NetCostModel::Box NetCostModel::scan_box(const PlacedNet& n,
                                         const std::vector<BlockLoc>& locs,
                                         std::size_t a, const BlockLoc& new_a,
                                         std::size_t b,
                                         const BlockLoc& new_b) const {
  return full_scan(n, locs, a, new_a, b, new_b);
}

void NetCostModel::rebuild(const std::vector<BlockLoc>& locs) {
  boxes_.resize(nets_->size());
  cost_ = 0.0;
  static const BlockLoc kNowhere{};
  for (std::size_t n = 0; n < nets_->size(); ++n) {
    Box box = scan_box((*nets_)[n], locs, kNoBlock, kNowhere, kNoBlock,
                       kNowhere);
    finish_cost(box, n);
    boxes_[n] = box;
    cost_ += box.cost;
  }
}

double NetCostModel::unweighted_cost() const {
  double cost = 0.0;
  for (std::size_t n = 0; n < boxes_.size(); ++n) {
    const Box& b = boxes_[n];
    cost += q_factor((*nets_)[n].sinks.size() + 1) *
            (static_cast<double>(b.x_hi - b.x_lo) +
             static_cast<double>(b.y_hi - b.y_lo));
  }
  return cost;
}

double NetCostModel::propose(const std::vector<BlockLoc>& locs, std::size_t a,
                             const BlockLoc& new_a, std::size_t b,
                             const BlockLoc& new_b, Pending& out) const {
  // Delta accumulation mirrors the seed annealer's do_swap: nets of a
  // first (with both pin moves applied, so shared nets are fully costed
  // here), then nets of b that a does not touch — for_each_touched walks
  // that exact order. Evaluations whose net box provably does not change
  // contribute an exact nb.cost - old.cost == +0.0, and adding +0.0
  // never alters an IEEE sum (no partial sum here can be -0.0: each term
  // is either a true nonzero or +0.0), so skipping them keeps the
  // floating-point delta bit-identical to the seed's.
  // The evaluation body must be inlined into the merge walk: as an
  // out-of-line call it is invoked once per touched net (~50 per move)
  // and the call overhead plus register spills roughly doubles placer
  // wall time. always_inline keeps propose one flat frame, like the
  // seed annealer's fully-inlined do_swap loop.
  for_each_touched(a, b, [&](std::size_t n, bool move_a,
                             bool move_b) NF_ALWAYS_INLINE {
    const Box& old = boxes_[n];
    if (move_a != move_b) {
      // Single moving pin: if both its old and new sites are strictly
      // inside the box, neither geometry nor edge counts can change.
      const BlockLoc& from = move_a ? locs[a] : locs[b];
      const BlockLoc& to = move_a ? new_a : new_b;
      if (strictly_inside(from, old) && strictly_inside(to, old)) return;
    }
    Box nb = old;
    bool ok = true;
    if (move_a) {
      ok = move_dim(static_cast<std::uint16_t>(locs[a].x),
                    static_cast<std::uint16_t>(new_a.x), nb.x_lo, nb.x_hi,
                    nb.on_x_lo, nb.on_x_hi) &&
           move_dim(static_cast<std::uint16_t>(locs[a].y),
                    static_cast<std::uint16_t>(new_a.y), nb.y_lo, nb.y_hi,
                    nb.on_y_lo, nb.on_y_hi);
    }
    if (ok && move_b) {
      ok = move_dim(static_cast<std::uint16_t>(locs[b].x),
                    static_cast<std::uint16_t>(new_b.x), nb.x_lo, nb.x_hi,
                    nb.on_x_lo, nb.on_x_hi) &&
           move_dim(static_cast<std::uint16_t>(locs[b].y),
                    static_cast<std::uint16_t>(new_b.y), nb.y_lo, nb.y_hi,
                    nb.on_y_lo, nb.on_y_hi);
    }
    if (!ok) {
      nb = full_scan((*nets_)[n], locs, a, new_a, b, new_b);
      ++out.rescans;
    }
    if (same_geometry(nb, old)) return;  // exact +0.0, box record unchanged
    if (nb.x_lo == old.x_lo && nb.x_hi == old.x_hi && nb.y_lo == old.y_lo &&
        nb.y_hi == old.y_hi) {
      // Same span, different edge counts: cost is a pure function of the
      // coordinates, so reuse it bitwise and skip the +0.0 delta term.
      nb.cost = old.cost;
      out.nets.push_back({n, nb});
      return;
    }
    finish_cost(nb, n);
    out.delta += nb.cost - old.cost;
    out.nets.push_back({n, nb});
  });
  return out.delta;
}

double NetCostModel::apply_swap(std::vector<BlockLoc>& locs, std::size_t a,
                                const BlockLoc& dest, std::size_t b,
                                Pending& undo) {
  const BlockLoc src = locs[a];
  locs[a] = dest;
  if (b != kNoBlock) locs[b] = src;
  // The seed annealer's do_swap evaluation order: rescan a's nets in
  // order, then b's nets in order. A shared net is rescanned twice; the
  // second visit recomputes the identical box against the
  // already-updated record, so its term is an exact +0.0 and the delta
  // stays bit-identical to the shared-net-once accumulation propose()
  // performs.
  double delta = 0.0;
  auto touch = [&](std::size_t blk) NF_ALWAYS_INLINE {
    for (std::size_t n : block_nets_[blk]) {
      Box nb = direct_scan((*nets_)[n], locs);
      finish_cost(nb, n);
      delta += nb.cost - boxes_[n].cost;
      undo.nets.push_back({n, boxes_[n]});
      boxes_[n] = nb;
    }
  };
  touch(a);
  if (b != kNoBlock) touch(b);
  return delta;
}

void NetCostModel::undo_swap(std::vector<BlockLoc>& locs, std::size_t a,
                             const BlockLoc& src, std::size_t b,
                             const BlockLoc& dest, const Pending& undo) {
  locs[a] = src;
  if (b != kNoBlock) locs[b] = dest;
  for (std::size_t i = undo.nets.size(); i-- > 0;) {
    boxes_[undo.nets[i].net] = undo.nets[i].box;
  }
}

double NetCostModel::propose_naive(const std::vector<BlockLoc>& locs,
                                   std::size_t a, const BlockLoc& new_a,
                                   std::size_t b, const BlockLoc& new_b,
                                   Pending& out) const {
  for (std::size_t n : block_nets_[a]) {
    Box nb = scan_box((*nets_)[n], locs, a, new_a, b, new_b);
    ++out.rescans;
    finish_cost(nb, n);
    out.delta += nb.cost - boxes_[n].cost;
    out.nets.push_back({n, nb});
  }
  if (b != kNoBlock) {
    for (std::size_t n : block_nets_[b]) {
      Box nb = scan_box((*nets_)[n], locs, a, new_a, b, new_b);
      ++out.rescans;
      finish_cost(nb, n);
      if (net_has((*nets_)[n], a)) {
        // Shared net: the seed recomputed it against its already-updated
        // box, contributing an exact +0.0 — reproduce that (the rescan
        // above is the work profile under measurement).
        for (const PendingNet& p : out.nets) {
          if (p.net == n) {
            out.delta += nb.cost - p.box.cost;
            break;
          }
        }
        continue;
      }
      out.delta += nb.cost - boxes_[n].cost;
      out.nets.push_back({n, nb});
    }
  }
  return out.delta;
}

void NetCostModel::commit(const Pending& p) {
  for (const PendingNet& pn : p.nets) boxes_[pn.net] = pn.box;
  cost_ += p.delta;
}

namespace {

/// One proposed move and the undo log of its in-place evaluation.
struct Proposal {
  std::size_t a = NetCostModel::kNoBlock;
  std::size_t b = NetCostModel::kNoBlock;
  BlockLoc src, dest;
  bool is_logic = false;
  bool valid = false;  ///< Degenerate draws (same site / self swap) = false.
  int gen = 0;         ///< 0 uniform, 1 weighted-centroid, 2 median-region.
  NetCostModel::Pending pending;
};

struct Annealer {
  const Packing& pack;
  const ArchParams& arch;
  std::size_t nx, ny;
  PlaceOptions opt;
  Rng rng;

  std::vector<PlacedNet> nets;
  NetCostModel model;
  std::vector<BlockLoc> locs;
  PlaceCounters counters;

  // Occupancy: logic grid and IO pad slots.
  std::vector<std::size_t> logic_at;            // (x-1) + (y-1)*nx -> block
  std::vector<std::vector<std::size_t>> io_at;  // io site -> slots
  std::vector<std::pair<std::size_t, std::size_t>> io_sites;  // (x, y)
  std::vector<std::size_t> io_site_index;  // keyed like site_key()

  // Directed-move state: adaptive generator probabilities (uniform,
  // centroid, median), per-temperature accept stats, and the
  // criticality-biased target blocks of the timing phase.
  std::array<double, 3> gen_weight{1.0, 0.0, 0.0};
  std::array<std::uint64_t, 3> gen_tried{}, gen_acc{};
  std::vector<std::size_t> crit_blocks;
  bool timing_phase = false;

  Proposal scratch;

  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);

  Annealer(const Packing& p, const ArchParams& a, std::size_t nx_,
           std::size_t ny_, const PlaceOptions& o,
           std::vector<PlacedNet> nets_in)
      : pack(p),
        arch(a),
        nx(nx_),
        ny(ny_),
        opt(o),
        rng(o.seed),
        nets(std::move(nets_in)),
        model(&nets, p.blocks.size()) {
    if (opt.directed_moves) gen_weight = {0.5, 0.25, 0.25};
  }

  std::size_t site_key(std::size_t x, std::size_t y) const {
    return y * (nx + 2) + x;
  }

  void initial_place() {
    logic_at.assign(nx * ny, kEmpty);
    // Enumerate IO sites clockwise.
    for (std::size_t x = 1; x <= nx; ++x) io_sites.push_back({x, 0});
    for (std::size_t y = 1; y <= ny; ++y) io_sites.push_back({nx + 1, y});
    for (std::size_t x = 1; x <= nx; ++x) io_sites.push_back({x, ny + 1});
    for (std::size_t y = 1; y <= ny; ++y) io_sites.push_back({0, y});
    io_at.assign(io_sites.size(),
                 std::vector<std::size_t>(arch.io_per_pad, kEmpty));
    io_site_index.assign((nx + 2) * (ny + 2), kEmpty);
    for (std::size_t s = 0; s < io_sites.size(); ++s) {
      io_site_index[site_key(io_sites[s].first, io_sites[s].second)] = s;
    }

    locs.resize(pack.blocks.size());
    std::size_t next_logic = 0;
    std::size_t next_io = 0;
    for (std::size_t b = 0; b < pack.blocks.size(); ++b) {
      if (pack.blocks[b].type == PackedType::kLogic) {
        if (next_logic >= nx * ny) throw std::invalid_argument("grid too small");
        const std::size_t x = next_logic % nx + 1;
        const std::size_t y = next_logic / nx + 1;
        locs[b] = {x, y, 0};
        logic_at[(x - 1) + (y - 1) * nx] = b;
        ++next_logic;
      } else {
        const std::size_t site = next_io / arch.io_per_pad;
        const std::size_t sub = next_io % arch.io_per_pad;
        if (site >= io_sites.size()) {
          throw std::invalid_argument("not enough IO pad slots");
        }
        locs[b] = {io_sites[site].first, io_sites[site].second, sub};
        io_at[site][sub] = b;
        ++next_io;
      }
    }
  }

  void commit_occupancy(std::size_t a, std::size_t b, const BlockLoc& src,
                        const BlockLoc& dest, bool is_logic) {
    if (is_logic) {
      logic_at[(dest.x - 1) + (dest.y - 1) * nx] = a;
      logic_at[(src.x - 1) + (src.y - 1) * nx] = (b == kEmpty) ? kEmpty : b;
    } else {
      const std::size_t ds = io_site_index[site_key(dest.x, dest.y)];
      const std::size_t ss = io_site_index[site_key(src.x, src.y)];
      io_at[ds][dest.sub] = a;
      io_at[ss][src.sub] = (b == kEmpty) ? kEmpty : b;
    }
  }

  // ---- move generation --------------------------------------------------

  /// Pick the move generator for this proposal. Draws nothing in the
  /// default (uniform-only) configuration, keeping the seed RNG sequence.
  int pick_generator(Rng& r, bool allow_directed) const {
    if (!allow_directed) return 0;
    const double u = r.uniform();
    double acc = 0.0;
    for (int g = 0; g < 2; ++g) {
      acc += gen_weight[static_cast<std::size_t>(g)];
      if (u < acc) return g;
    }
    return 2;
  }

  /// Pick the block to move. Timing-phase directed runs bias half the
  /// picks toward blocks on (estimated) critical nets.
  std::size_t pick_block(Rng& r, bool allow_directed) const {
    if (allow_directed && timing_phase && !crit_blocks.empty() &&
        r.uniform() < 0.5) {
      return crit_blocks[r.uniform_int(crit_blocks.size())];
    }
    return r.uniform_int(pack.blocks.size());
  }

  /// Weighted centroid of the boxes of the nets touching `a` — the
  /// natural wirelength-minimizing target for the block.
  bool centroid_target(std::size_t a, std::size_t& tx, std::size_t& ty) const {
    double wx = 0.0, wy = 0.0, wsum = 0.0;
    for (std::size_t n : model.nets_of(a)) {
      const NetCostModel::Box& b = model.box(n);
      const double w = model.weight(n);
      wx += w * 0.5 * (static_cast<double>(b.x_lo) + static_cast<double>(b.x_hi));
      wy += w * 0.5 * (static_cast<double>(b.y_lo) + static_cast<double>(b.y_hi));
      wsum += w;
    }
    if (wsum <= 0.0) return false;
    tx = static_cast<std::size_t>(std::clamp<long long>(
        std::llround(wx / wsum), 1, static_cast<long long>(nx)));
    ty = static_cast<std::size_t>(std::clamp<long long>(
        std::llround(wy / wsum), 1, static_cast<long long>(ny)));
    return true;
  }

  /// Median of the bounding edges of the connected nets (VPR's "median
  /// region" generator): robust to one far-away net dragging the target.
  bool median_target(std::size_t a, std::size_t& tx, std::size_t& ty) const {
    const auto& ns = model.nets_of(a);
    if (ns.empty()) return false;
    std::vector<std::uint32_t> xs, ys;
    xs.reserve(2 * ns.size());
    ys.reserve(2 * ns.size());
    for (std::size_t n : ns) {
      const NetCostModel::Box& b = model.box(n);
      xs.push_back(b.x_lo);
      xs.push_back(b.x_hi);
      ys.push_back(b.y_lo);
      ys.push_back(b.y_hi);
    }
    const std::size_t mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                     xs.end());
    std::nth_element(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(mid),
                     ys.end());
    tx = std::clamp<std::size_t>(xs[mid], 1, nx);
    ty = std::clamp<std::size_t>(ys[mid], 1, ny);
    return true;
  }

  /// Draw one move from `r` against the current placement state.
  /// Reproduces the seed draw sequence exactly when allow_directed is
  /// false: block, then destination coordinates/site.
  void gen_move(Rng& r, double range, bool allow_directed, Proposal& p) const {
    p.valid = false;
    p.b = kEmpty;
    p.gen = pick_generator(r, allow_directed);
    p.a = pick_block(r, allow_directed);
    p.is_logic = pack.blocks[p.a].type == PackedType::kLogic;
    p.src = locs[p.a];
    if (p.is_logic) {
      std::size_t tx = 0, ty = 0;
      bool directed = false;
      if (p.gen == 1) directed = centroid_target(p.a, tx, ty);
      else if (p.gen == 2) directed = median_target(p.a, tx, ty);
      if (directed) {
        // Land within +-1 of the target so the generator explores the
        // neighbourhood instead of hammering one cell.
        const long long jx = static_cast<long long>(r.uniform_int(3)) - 1;
        const long long jy = static_cast<long long>(r.uniform_int(3)) - 1;
        p.dest.x = static_cast<std::size_t>(std::clamp<long long>(
            static_cast<long long>(tx) + jx, 1, static_cast<long long>(nx)));
        p.dest.y = static_cast<std::size_t>(std::clamp<long long>(
            static_cast<long long>(ty) + jy, 1, static_cast<long long>(ny)));
      } else {
        const auto rr = static_cast<std::size_t>(std::max(1.0, range));
        const auto pick_coord = [&](std::size_t cur, std::size_t limit) {
          const std::size_t lo = cur > rr ? cur - rr : 1;
          const std::size_t hi = std::min(limit, cur + rr);
          return lo + r.uniform_int(hi - lo + 1);
        };
        p.dest.x = pick_coord(p.src.x, nx);
        p.dest.y = pick_coord(p.src.y, ny);
      }
      p.dest.sub = 0;
      if (p.dest.x == p.src.x && p.dest.y == p.src.y) return;
      p.b = logic_at[(p.dest.x - 1) + (p.dest.y - 1) * nx];
    } else {
      const std::size_t site = r.uniform_int(io_sites.size());
      p.dest.x = io_sites[site].first;
      p.dest.y = io_sites[site].second;
      p.dest.sub = r.uniform_int(arch.io_per_pad);
      if (p.dest.x == p.src.x && p.dest.y == p.src.y &&
          p.dest.sub == p.src.sub) {
        return;
      }
      p.b = io_at[site][p.dest.sub];
    }
    if (p.b == p.a) {
      p.b = kEmpty;
      return;
    }
    // Only swap like-with-like (logic vs IO slots are inherently disjoint).
    p.valid = true;
  }

  /// One proposed move; returns true if accepted. With allow_directed
  /// false this is draw-for-draw and bit-for-bit the seed annealer's
  /// try_move, except that a rejected move is reversed from the undo log
  /// instead of recomputed back.
  bool try_move(double t, double range = 1e9, bool allow_directed = false) {
    ++counters.proposed;
    gen_move(rng, range, allow_directed, scratch);
    if (opt.directed_moves) {
      ++gen_tried[static_cast<std::size_t>(scratch.gen)];
      if (scratch.gen != 0) ++counters.directed;
    }
    if (!scratch.valid) return false;
    // Mutate with an undo log. The evaluation is the seed annealer's
    // do_swap discipline (in-place rescans, no merge walk), but where the
    // seed paid a full second rescan to reverse a rejected move, the undo
    // log restores the displaced boxes bit-for-bit with plain copies.
    scratch.pending.clear();
    const double delta = model.apply_swap(locs, scratch.a, scratch.dest,
                                          scratch.b, scratch.pending);
    const bool accept = delta <= 0.0 || rng.uniform() < std::exp(-delta / t);
    if (accept) {
      model.book_delta(delta);
      commit_occupancy(scratch.a, scratch.b, scratch.src, scratch.dest,
                       scratch.is_logic);
      ++counters.accepted;
      if (opt.directed_moves) ++gen_acc[static_cast<std::size_t>(scratch.gen)];
      return true;
    }
    model.undo_swap(locs, scratch.a, scratch.src, scratch.b, scratch.dest,
                    scratch.pending);
    return false;
  }

  // ---- schedule ---------------------------------------------------------

  std::size_t sweep(double t, double range, std::size_t moves) {
    std::size_t accepted = 0;
    for (std::size_t m = 0; m < moves; ++m) {
      accepted += try_move(t, range, opt.directed_moves);
    }
    return accepted;
  }

  /// Re-balance the generator probabilities toward whichever generator
  /// is currently earning acceptances, with a floor so none starves.
  void update_gen_weights() {
    std::array<double, 3> w{};
    double sum = 0.0;
    for (std::size_t g = 0; g < 3; ++g) {
      const double rate = gen_tried[g]
                              ? static_cast<double>(gen_acc[g]) /
                                    static_cast<double>(gen_tried[g])
                              : 0.5;
      w[g] = 0.1 + rate;
      sum += w[g];
      gen_tried[g] = 0;
      gen_acc[g] = 0;
    }
    for (std::size_t g = 0; g < 3; ++g) gen_weight[g] = w[g] / sum;
  }

  void anneal(double t_start) {
    const std::size_t n_blocks = pack.blocks.size();
    const auto moves_per_t = static_cast<std::size_t>(
        std::max(1.0, opt.inner_num *
                          std::pow(static_cast<double>(n_blocks), 4.0 / 3.0)));
    double t = t_start;
    double range = static_cast<double>(std::max(nx, ny));
    // Exit temperature from the cost at anneal entry, not VPR's live
    // cost: the live rule runs a few more cold temperatures and bought
    // no measurable QoR (EXPERIMENTS.md, "Anneal schedule").
    const double exit_t =
        0.005 * model.total_cost() /
        static_cast<double>(std::max<std::size_t>(nets.size(), 1));
    while (t > exit_t) {
      const std::size_t accepted = sweep(t, range, moves_per_t);
      const double rate =
          static_cast<double>(accepted) / static_cast<double>(moves_per_t);
      // VPR's adaptive schedule.
      double alpha;
      if (rate > 0.96) alpha = 0.5;
      else if (rate > 0.8) alpha = 0.9;
      else if (rate > 0.15) alpha = 0.95;
      else alpha = 0.8;
      t *= alpha;
      // Shrink the move window toward the sweet-spot 44% acceptance.
      range *= 1.0 - 0.44 + rate;
      range = std::clamp(range, 1.0, static_cast<double>(std::max(nx, ny)));
      if (opt.directed_moves) update_gen_weights();
    }
  }

  /// Initial temperature: the std-dev of random-move deltas. [Betz 99]
  /// starts at 20x that, where nearly every move is accepted: the first
  /// 12-17 temperatures then accept over 80% of the moves, 12-16% of the
  /// budget, and leave the cost a little better on some circuits and
  /// worse on others (EXPERIMENTS.md, "Anneal schedule"). At 1x the first
  /// temperature accepts about 75-80%, the top of the band where the
  /// anneal does its work. Always probes with the uniform generator, so
  /// it is seed-identical whether or not directed moves are on.
  double probe_temperature() {
    const std::size_t n_blocks = pack.blocks.size();
    double sum = 0.0, sum2 = 0.0;
    const std::size_t probes = std::min<std::size_t>(n_blocks, 200);
    for (std::size_t i = 0; i < probes; ++i) {
      const double before = model.total_cost();
      try_move(1e30);  // always accept
      const double d = model.total_cost() - before;
      sum += d;
      sum2 += d * d;
    }
    const double mean = sum / static_cast<double>(probes);
    const double var = sum2 / static_cast<double>(probes) - mean * mean;
    return std::sqrt(std::max(var, 1e-12));
  }

  void run(const Netlist& nl) {
    initial_place();
    model.rebuild(locs);
    if (nets.empty()) return;
    anneal(probe_temperature());

    if (opt.timing_driven) {
      // Criticality-weighted refinement: nets on (estimated) critical
      // paths pull harder in a second anneal at medium temperature. The
      // estimate is the shared utility the incremental STA also seeds
      // from, keeping placement and routing on one criticality notion.
      const auto crit = placement_net_criticality(nl, nets, locs);
      std::vector<double> w(nets.size(), 1.0);
      for (std::size_t n = 0; n < nets.size(); ++n) {
        w[n] = 1.0 + opt.timing_weight * crit[n] * crit[n];
      }
      model.set_weights(std::move(w));
      model.rebuild(locs);  // re-evaluate boxes under the new weights
      timing_phase = true;
      if (opt.directed_moves) {
        for (std::size_t n = 0; n < nets.size(); ++n) {
          if (crit[n] < 0.8) continue;
          crit_blocks.push_back(nets[n].driver);
          for (std::size_t s : nets[n].sinks) crit_blocks.push_back(s);
        }
        std::sort(crit_blocks.begin(), crit_blocks.end());
        crit_blocks.erase(
            std::unique(crit_blocks.begin(), crit_blocks.end()),
            crit_blocks.end());
      }
      const double exit_t =
          0.005 * model.total_cost() /
          static_cast<double>(std::max<std::size_t>(nets.size(), 1));
      anneal(50.0 * exit_t);
    }
  }
};

}  // namespace

std::optional<PlacedNet> make_placed_net(const Netlist& nl, const Packing& p,
                                         NetId n) {
  if (p.net_absorbed[n]) return std::nullopt;
  const Net& net = nl.net(n);
  PlacedNet pn;
  pn.net = n;
  pn.driver = p.block_owner[net.driver];
  std::unordered_set<std::size_t> sink_blocks;
  for (BlockId s : net.sinks) {
    const std::size_t owner = p.block_owner[s];
    if (owner != pn.driver) sink_blocks.insert(owner);
  }
  if (sink_blocks.empty()) return std::nullopt;  // fully local (or dangling)
  pn.sinks.assign(sink_blocks.begin(), sink_blocks.end());
  std::sort(pn.sinks.begin(), pn.sinks.end());
  return pn;
}

std::vector<PlacedNet> extract_placed_nets(const Netlist& nl,
                                           const Packing& p) {
  std::vector<PlacedNet> nets;
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (auto pn = make_placed_net(nl, p, n)) nets.push_back(std::move(*pn));
  }
  return nets;
}

std::vector<double> placement_net_criticality(
    const Netlist& nl, const std::vector<PlacedNet>& nets,
    const std::vector<BlockLoc>& locs) {
  std::vector<std::size_t> net_to_placed(nl.net_count(), kInvalidId);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    net_to_placed[nets[n].net] = n;
  }
  // A net's delay proxy is its bounding-box semiperimeter (absorbed nets
  // cost a fixed local-feedback fraction).
  auto net_delay = [&](NetId n) {
    const std::size_t idx = net_to_placed[n];
    if (idx == kInvalidId) return 0.3;  // local feedback
    const PlacedNet& pn = nets[idx];
    std::size_t x_lo = locs[pn.driver].x, x_hi = x_lo;
    std::size_t y_lo = locs[pn.driver].y, y_hi = y_lo;
    for (std::size_t s : pn.sinks) {
      x_lo = std::min(x_lo, locs[s].x);
      x_hi = std::max(x_hi, locs[s].x);
      y_lo = std::min(y_lo, locs[s].y);
      y_hi = std::max(y_hi, locs[s].y);
    }
    return 1.0 + static_cast<double>((x_hi - x_lo) + (y_hi - y_lo));
  };

  // Forward arrival over LUTs (latches/PIs are start points, delay 1 per
  // LUT level).
  std::vector<double> arrival(nl.block_count(), 0.0);
  std::vector<std::size_t> pending(nl.block_count(), 0);
  std::vector<BlockId> ready;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Block& blk = nl.block(b);
    if (blk.type == BlockType::kLut) {
      std::size_t comb = 0;
      for (NetId n : blk.inputs) {
        if (nl.block(nl.net(n).driver).type == BlockType::kLut) ++comb;
      }
      pending[b] = comb;
      if (comb == 0) ready.push_back(b);
    }
  }
  std::vector<BlockId> topo;
  while (!ready.empty()) {
    const BlockId b = ready.back();
    ready.pop_back();
    topo.push_back(b);
    const Block& blk = nl.block(b);
    double arr = 0.0;
    for (NetId n : blk.inputs) {
      arr = std::max(arr, arrival[nl.net(n).driver] + net_delay(n));
    }
    arrival[b] = arr + 1.0;
    for (BlockId sk : nl.net(blk.output).sinks) {
      if (nl.block(sk).type == BlockType::kLut && pending[sk] > 0) {
        if (--pending[sk] == 0) ready.push_back(sk);
      }
    }
  }
  // LUTs still pending were never drained: they sit on a combinational
  // cycle the topological pass cannot order, so their arrival times are
  // meaningless (stuck at 0). Flag them and treat every net touching one
  // as fully critical (zero slack) instead of silently under-weighting.
  std::vector<char> in_cycle(nl.block_count(), 0);
  std::size_t n_cyclic = 0;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    if (nl.block(b).type == BlockType::kLut && pending[b] > 0) {
      in_cycle[b] = 1;
      ++n_cyclic;
    }
  }
  if (n_cyclic > 0) {
    std::fprintf(stderr,
                 "placement_net_criticality: %zu LUT(s) on combinational "
                 "cycles have no topological arrival time; nets touching "
                 "them fall back to zero-slack (fully critical) shaping\n",
                 n_cyclic);
  }
  double d_max = 1.0;
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Block& blk = nl.block(b);
    if (blk.type == BlockType::kLatch || blk.type == BlockType::kOutput) {
      for (NetId n : blk.inputs) {
        d_max = std::max(d_max, arrival[nl.net(n).driver] + net_delay(n));
      }
    }
  }
  // Backward required times over the reverse topological order.
  std::vector<double> required(nl.block_count(), d_max);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const BlockId b = *it;
    const Block& blk = nl.block(b);
    double req = d_max;
    for (BlockId sk : nl.net(blk.output).sinks) {
      const Block& sb = nl.block(sk);
      const double d = net_delay(blk.output);
      if (sb.type == BlockType::kLut) {
        req = std::min(req, required[sk] - 1.0 - d);
      } else {
        req = std::min(req, d_max - d);
      }
    }
    required[b] = req;
  }
  // Criticality per placed net from the tightest sink's slack.
  std::vector<double> crit(nets.size(), 0.0);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const NetId net_id = nets[n].net;
    const BlockId drv = nl.net(net_id).driver;
    bool cyclic = nl.block(drv).type == BlockType::kLut && in_cycle[drv];
    const double arr = arrival[drv];
    double worst_req = d_max;
    for (BlockId sk : nl.net(net_id).sinks) {
      if (nl.block(sk).type == BlockType::kLut) {
        worst_req = std::min(worst_req, required[sk] - 1.0);
        if (in_cycle[sk]) cyclic = true;
      }
    }
    if (cyclic) {
      crit[n] = criticality_from_slack(0.0, d_max);
      continue;
    }
    const double slack = worst_req - arr - net_delay(net_id);
    crit[n] = criticality_from_slack(slack, d_max);
  }
  return crit;
}

Placement place(const Netlist& nl, const Packing& p, const ArchParams& arch,
                std::size_t nx, std::size_t ny, const PlaceOptions& opt) {
  Annealer an(p, arch, nx, ny, opt, extract_placed_nets(nl, p));
  an.run(nl);

  Placement out;
  out.nx = nx;
  out.ny = ny;
  out.locs = std::move(an.locs);
  out.final_weighted_cost = an.model.total_cost();
  // The timing-driven anneal minimizes the weighted cost; report the
  // unweighted bounding-box cost separately so final_cost always matches
  // placement_cost()'s definition.
  out.final_cost = opt.timing_driven ? an.model.unweighted_cost()
                                     : an.model.total_cost();
  out.counters = an.counters;
  out.nets = std::move(an.nets);
  return out;
}

double placement_cost(const Placement& pl) {
  double cost = 0.0;
  for (const auto& n : pl.nets) {
    std::size_t x_lo = pl.locs[n.driver].x, x_hi = x_lo;
    std::size_t y_lo = pl.locs[n.driver].y, y_hi = y_lo;
    for (std::size_t s : n.sinks) {
      x_lo = std::min(x_lo, pl.locs[s].x);
      x_hi = std::max(x_hi, pl.locs[s].x);
      y_lo = std::min(y_lo, pl.locs[s].y);
      y_hi = std::max(y_hi, pl.locs[s].y);
    }
    cost += q_factor(n.sinks.size() + 1) *
            (static_cast<double>(x_hi - x_lo) + static_cast<double>(y_hi - y_lo));
  }
  return cost;
}

void check_placement(const Packing& p, const ArchParams& arch,
                     const Placement& pl) {
  if (pl.locs.size() != p.blocks.size()) {
    throw std::logic_error("check_placement: loc count mismatch");
  }
  std::unordered_set<std::size_t> used;
  for (std::size_t b = 0; b < p.blocks.size(); ++b) {
    const BlockLoc& l = pl.locs[b];
    const bool is_logic = p.blocks[b].type == PackedType::kLogic;
    const bool in_core = l.x >= 1 && l.x <= pl.nx && l.y >= 1 && l.y <= pl.ny;
    const bool border_x = (l.x == 0 || l.x == pl.nx + 1);
    const bool border_y = (l.y == 0 || l.y == pl.ny + 1);
    const bool on_border = border_x != border_y;
    if (is_logic) {
      if (!in_core) throw std::logic_error("logic block off-grid");
      if (l.sub != 0) throw std::logic_error("logic block sub-slot");
    } else {
      if (!on_border) throw std::logic_error("IO block not on border");
      if (l.sub >= arch.io_per_pad) throw std::logic_error("IO sub overflow");
    }
    const std::size_t key =
        (l.y * (pl.nx + 2) + l.x) * (arch.io_per_pad + 1) + l.sub;
    if (!used.insert(key).second) {
      throw std::logic_error("check_placement: overlapping blocks");
    }
  }
}

}  // namespace nemfpga
