#include "verify/generators.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "device/nem_relay.hpp"
#include "netlist/blif.hpp"
#include "place/place_io.hpp"

namespace nemfpga::verify {

std::string DesignCase::describe() const {
  std::ostringstream os;
  os << "spec{name=" << spec.name << " luts=" << spec.n_luts
     << " in=" << spec.n_inputs << " out=" << spec.n_outputs
     << " ff=" << spec.n_latches << " loc=" << spec.locality
     << " gep=" << spec.global_edge_prob << "} arch{N=" << arch.N
     << " W=" << arch.W << " L=" << arch.L << " fc_in=" << arch.fc_in
     << " fc_out=" << arch.fc_out
     << " sb=" << sb_pattern_name(arch.sb_pattern);
  if (arch.sb_pattern == SbPattern::kCustom) {
    os << " sbrot=" << arch.sb_custom_rot;
  }
  os << "} route{iters=" << route.max_iterations
     << " la=" << route.astar_factor << " par=" << route.net_parallel
     << " impl=" << (route.rr_backend == RrBackend::kImplicit)
     << " bb=" << route.bb_margin << " td=" << route.timing_driven
     << " cexp=" << route.criticality_exp
     << " mcrit=" << route.max_criticality
     << "} place{seed=" << place_seed << " inner=" << place_inner_num
     << " dir=" << place_directed << " td=" << place_timing << "}";
  return os.str();
}

DesignCase gen_design_case(Rng& rng) {
  DesignCase c;
  c.spec.name = "prop" + std::to_string(rng.next_u64());
  c.spec.n_luts = 6 + rng.uniform_int(64);
  c.spec.n_inputs = 3 + rng.uniform_int(8);
  c.spec.n_outputs = 2 + rng.uniform_int(6);
  c.spec.n_latches = rng.uniform_int(c.spec.n_luts / 4 + 1);
  c.spec.lut_inputs = 4;
  c.spec.locality = rng.uniform(0.6, 1.8);
  c.spec.global_edge_prob = rng.uniform(0.0, 0.12);

  c.arch.N = 4 + rng.uniform_int(7);          // 4..10 LUTs per cluster
  c.arch.K = 4;
  c.arch.L = 1 + rng.uniform_int(4);          // segment length 1..4
  c.arch.W = 6 + 2 * rng.uniform_int(5);      // 6..14 tracks (congested)
  c.arch.fc_in = rng.uniform(0.15, 0.5);
  c.arch.fc_out = rng.uniform(0.1, 0.4);
  // Switch-block pattern: Wilton-weighted (the paper's default keeps the
  // most coverage), the rest split across the parameterized patterns so
  // every differential campaign also audits the pattern machinery. A
  // custom rotation draws 0..W+1 to hit the degenerate (r=0) and
  // modulo-folded (r>=W) corners.
  if (!rng.chance(0.55)) {
    switch (rng.uniform_int(3)) {
      case 0: c.arch.sb_pattern = SbPattern::kSubset; break;
      case 1: c.arch.sb_pattern = SbPattern::kUniversal; break;
      default:
        c.arch.sb_pattern = SbPattern::kCustom;
        c.arch.sb_custom_rot = rng.uniform_int(c.arch.W + 2);
        break;
    }
  }

  c.route.max_iterations = 40;
  // Lookahead weight: admissible-to-mildly-weighted (0.9..1.2).
  c.route.astar_factor = 0.9 + 0.1 * rng.uniform_int(4);
  c.route.net_parallel = rng.chance(0.5);
  // Backend choice is correctness-neutral by construction (node ids and
  // edge order are identical), so the differential props drive it often.
  // NF_PROP_IMPLICIT=1 pins every case to the implicit backend (the
  // fuzz campaign's --implicit flag).
  const bool force_impl =
      std::getenv("NF_PROP_IMPLICIT") != nullptr &&
      std::getenv("NF_PROP_IMPLICIT")[0] == '1';
  c.route.rr_backend = force_impl || rng.chance(0.5)
                           ? RrBackend::kImplicit
                           : RrBackend::kExplicit;
  c.route.bb_margin = 1 + rng.uniform_int(4);
  // Timing-driven blend: off most of the time (the congestion-only
  // contract keeps its coverage), else random criticality shaping. The
  // property harness constructs the hooks (one per router — they are
  // stateful) from the built design; timing_hook stays null here.
  c.route.timing_driven = rng.chance(0.35);
  c.route.criticality_exp = 1.0 + 0.5 * rng.uniform_int(5);  // 1.0..3.0
  c.route.max_criticality = rng.chance(0.5) ? 0.99 : 0.999;

  c.place_seed = 1 + rng.uniform_int(1 << 20);
  c.place_inner_num = 0.1;
  // Placer knobs: sometimes the directed generators and / or the
  // criticality-weighted second anneal.
  c.place_directed = rng.chance(0.35);
  c.place_timing = rng.chance(0.3);
  return c;
}

std::vector<DesignCase> shrink_design_case(const DesignCase& c) {
  std::vector<DesignCase> out;
  auto push = [&](auto&& mutate) {
    DesignCase s = c;
    mutate(s);
    out.push_back(std::move(s));
  };
  if (c.spec.n_luts > 6) {
    push([&](DesignCase& s) {
      s.spec.n_luts = std::max<std::size_t>(6, c.spec.n_luts / 2);
      s.spec.n_latches = std::min(s.spec.n_latches, s.spec.n_luts / 4);
    });
    push([&](DesignCase& s) {
      s.spec.n_luts = c.spec.n_luts - 1;
      s.spec.n_latches = std::min(s.spec.n_latches, s.spec.n_luts / 4);
    });
  }
  if (c.spec.n_latches > 0) {
    push([&](DesignCase& s) { s.spec.n_latches = 0; });
  }
  if (c.spec.n_inputs > 3) {
    push([&](DesignCase& s) { s.spec.n_inputs = c.spec.n_inputs - 1; });
  }
  if (c.spec.n_outputs > 2) {
    push([&](DesignCase& s) { s.spec.n_outputs = c.spec.n_outputs - 1; });
  }
  if (c.arch.W > 6) {
    push([&](DesignCase& s) { s.arch.W = c.arch.W - 2; });
  }
  // Shrink toward the congestion-only router first: a reproducer that
  // survives timing_driven=false exonerates the whole timing layer.
  if (c.route.timing_driven) {
    push([&](DesignCase& s) { s.route.timing_driven = false; });
  }
  if (c.route.criticality_exp != 1.0) {
    push([&](DesignCase& s) { s.route.criticality_exp = 1.0; });
  }
  // Shrink toward the paper's Wilton switch block: a reproducer that
  // survives the pattern swap exonerates the parameterized sb_turn_track
  // machinery (a custom case also tries the default rotation first).
  if (c.arch.sb_pattern != SbPattern::kWilton) {
    if (c.arch.sb_pattern == SbPattern::kCustom && c.arch.sb_custom_rot != 5) {
      push([&](DesignCase& s) { s.arch.sb_custom_rot = 5; });
    }
    push([&](DesignCase& s) {
      s.arch.sb_pattern = SbPattern::kWilton;
      s.arch.sb_custom_rot = 5;
    });
  }
  // Shrink toward the admissible table weight, the stored-adjacency
  // backend and the serial scheduler: a reproducer that survives a
  // switch localizes the fault outside that component.
  if (c.route.astar_factor != 1.0) {
    push([&](DesignCase& s) { s.route.astar_factor = 1.0; });
  }
  if (c.route.rr_backend == RrBackend::kImplicit) {
    push([&](DesignCase& s) { s.route.rr_backend = RrBackend::kExplicit; });
  }
  if (c.route.net_parallel) {
    push([&](DesignCase& s) { s.route.net_parallel = false; });
  }
  // Shrink the placer toward the seed-identical uniform annealer: a
  // reproducer that survives these switches exonerates the directed
  // generators / timing anneal respectively.
  if (c.place_directed) {
    push([&](DesignCase& s) { s.place_directed = false; });
  }
  if (c.place_timing) {
    push([&](DesignCase& s) { s.place_timing = false; });
  }
  return out;
}

BuiltDesign build_design(const DesignCase& c) {
  BuiltDesign d;
  d.arch = c.arch;
  d.nl = generate_netlist(c.spec);
  d.pk = pack_netlist(d.nl, d.arch);
  const auto [nx, ny] =
      grid_size_for(d.arch, d.pk.clusters.size(), d.pk.io_block_count());
  d.nx = nx;
  d.ny = ny;
  PlaceOptions popt;
  popt.seed = c.place_seed;
  popt.inner_num = c.place_inner_num;
  popt.directed_moves = c.place_directed;
  popt.timing_driven = c.place_timing;
  d.pl = place(d.nl, d.pk, d.arch, nx, ny, popt);
  return d;
}

std::string EcoCase::describe() const {
  std::ostringstream os;
  os << "eco{seed=" << edit_seed << " edits=" << n_edits << "} "
     << design.describe();
  return os.str();
}

EcoCase gen_eco_case(Rng& rng) {
  EcoCase c;
  c.design = gen_design_case(rng);
  // Generous channels and iteration budget: the ECO props want routable
  // bases (congestion fights belong to the routing props), and enough
  // headroom that most edited designs stay routable too — the
  // differential replay only bites on successful applies.
  c.design.arch.W = 14 + 2 * rng.uniform_int(6);  // 14..24 tracks
  c.design.route.max_iterations = 60;
  c.edit_seed = rng.next_u64();
  c.n_edits = 1 + rng.uniform_int(12);  // 1..12 compounding deltas
  return c;
}

std::vector<EcoCase> shrink_eco_case(const EcoCase& c) {
  std::vector<EcoCase> out;
  // Fewer edits first: the cheapest reduction, and a reproducer with one
  // delta pinpoints the faulty op directly.
  if (c.n_edits > 1) {
    EcoCase s = c;
    s.n_edits = std::max<std::size_t>(1, c.n_edits / 2);
    out.push_back(s);
    s = c;
    s.n_edits = c.n_edits - 1;
    out.push_back(s);
  }
  for (const DesignCase& d : shrink_design_case(c.design)) {
    EcoCase s = c;
    s.design = d;
    out.push_back(std::move(s));
  }
  return out;
}

NetlistDelta gen_eco_delta(Rng& rng, const Netlist& nl, const Packing& pk,
                           const ArchParams& arch, std::size_t nx,
                           std::size_t ny,
                           const std::vector<BlockLoc>& locs) {
  // Candidate pools are rebuilt per call: the netlist evolves between
  // deltas, so nothing here may be cached across the edit stream.
  std::vector<BlockId> luts;
  std::vector<BlockId> fat_luts;   // >= 2 inputs (disconnectable)
  std::vector<BlockId> slim_luts;  // < K inputs (connectable)
  std::vector<BlockId> pinned;     // retargetable: has input pins, not a
                                   // fused LUT+FF latch, not a PI
  std::vector<char> fused(nl.net_count(), 0);
  for (const Ble& b : pk.bles) {
    if (b.absorbed != kInvalidId) fused[b.absorbed] = 1;
  }
  std::vector<std::size_t> block_ble(nl.block_count(), kInvalidId);
  for (std::size_t i = 0; i < pk.bles.size(); ++i) {
    if (pk.bles[i].lut != kInvalidId) block_ble[pk.bles[i].lut] = i;
    if (pk.bles[i].latch != kInvalidId) block_ble[pk.bles[i].latch] = i;
  }
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    const Block& blk = nl.block(b);
    if (blk.type == BlockType::kLut) {
      luts.push_back(b);
      if (blk.inputs.size() >= 2) fat_luts.push_back(b);
      if (blk.inputs.size() < arch.K) slim_luts.push_back(b);
    }
    if (blk.type == BlockType::kInput || blk.inputs.empty()) continue;
    if (blk.type == BlockType::kLatch &&
        pk.bles[block_ble[b]].lut != kInvalidId) {
      continue;  // D pin of a fused LUT+FF BLE: rejected by the ECO flow
    }
    pinned.push_back(b);
  }
  const auto pick = [&](const std::vector<BlockId>& v) {
    return v[rng.uniform_int(v.size())];
  };
  // A net the ECO flow accepts as a connection endpoint: not absorbed
  // into a fused BLE. Falls back to a raw (possibly fused) id when the
  // dice refuse to cooperate — that op simply exercises rejection.
  const auto pick_net = [&]() -> NetId {
    for (int t = 0; t < 16; ++t) {
      const NetId n = rng.uniform_int(nl.net_count());
      if (!fused[n]) return n;
    }
    return rng.uniform_int(nl.net_count());
  };
  const auto occupied = [&](const BlockLoc& l) {
    for (const BlockLoc& o : locs) {
      if (o.x == l.x && o.y == l.y && o.sub == l.sub) return true;
    }
    return false;
  };
  const auto random_core_site = [&]() {
    return BlockLoc{1 + rng.uniform_int(nx), 1 + rng.uniform_int(ny), 0};
  };
  const auto random_border_site = [&]() {
    BlockLoc l;
    l.sub = rng.uniform_int(arch.io_per_pad);
    switch (rng.uniform_int(4)) {
      case 0: l.x = 0; l.y = 1 + rng.uniform_int(ny); break;
      case 1: l.x = nx + 1; l.y = 1 + rng.uniform_int(ny); break;
      case 2: l.y = 0; l.x = 1 + rng.uniform_int(nx); break;
      default: l.y = ny + 1; l.x = 1 + rng.uniform_int(nx); break;
    }
    return l;
  };

  NetlistDelta d;
  const std::size_t n_ops = 1 + rng.uniform_int(3);  // 1..3 ops
  for (std::size_t i = 0; i < n_ops; ++i) {
    // A deliberate minority of ops violates a precondition (bad pin,
    // occupied site, K overflow, fused net) so every replay also walks
    // the transactional-rejection path of the flow under test.
    const bool sabotage = rng.chance(0.12);
    switch (rng.uniform_int(5)) {
      case 0: {  // connect
        if (sabotage && !fat_luts.empty()) {
          // Overfill: target a LUT already at (or past) the K cap by
          // stacking connects on the same fat LUT.
          const BlockId b = pick(fat_luts);
          for (std::size_t k = nl.block(b).inputs.size(); k <= arch.K; ++k) {
            d.ops.push_back(EcoOp::connect(b, pick_net()));
          }
        } else if (!slim_luts.empty()) {
          d.ops.push_back(EcoOp::connect(pick(slim_luts), pick_net()));
        }
        break;
      }
      case 1: {  // disconnect
        if (fat_luts.empty()) break;
        const BlockId b = pick(fat_luts);
        const std::size_t fanin = nl.block(b).inputs.size();
        const std::size_t pin =
            sabotage ? fanin + rng.uniform_int(3) : rng.uniform_int(fanin);
        d.ops.push_back(EcoOp::disconnect(b, pin));
        break;
      }
      case 2: {  // retarget
        if (pinned.empty()) break;
        const BlockId b = pick(pinned);
        const std::size_t fanin = nl.block(b).inputs.size();
        const std::size_t pin =
            sabotage ? fanin + rng.uniform_int(3) : rng.uniform_int(fanin);
        d.ops.push_back(EcoOp::retarget(b, pin, pick_net()));
        break;
      }
      case 3: {  // move
        const std::size_t blk = rng.uniform_int(pk.blocks.size());
        const bool logic = blk < pk.clusters.size();
        BlockLoc dest = logic ? random_core_site() : random_border_site();
        if (!sabotage) {
          for (int t = 0; t < 8 && occupied(dest); ++t) {
            dest = logic ? random_core_site() : random_border_site();
          }
        }
        d.ops.push_back(EcoOp::move_block(blk, dest.x, dest.y, dest.sub));
        break;
      }
      default: {  // swap
        const std::size_t a = rng.uniform_int(pk.blocks.size());
        std::size_t b = rng.uniform_int(pk.blocks.size());
        if (!sabotage) {
          // Stay inside a's logic/IO category (cross-category swaps are
          // rejected); retry a few times, else fall through as-is.
          for (int t = 0; t < 8; ++t) {
            if ((a < pk.clusters.size()) == (b < pk.clusters.size())) break;
            b = rng.uniform_int(pk.blocks.size());
          }
        }
        d.ops.push_back(EcoOp::swap_blocks(a, b));
        break;
      }
    }
  }
  if (d.ops.empty() && !luts.empty()) {
    // Degenerate draw (every pool empty for the chosen kinds): fall back
    // to a guaranteed-representable op so no delta is silently empty.
    const BlockId b = pick(luts);
    d.ops.push_back(EcoOp::retarget(
        b, rng.uniform_int(nl.block(b).inputs.size()), pick_net()));
  }
  return d;
}

RelayDesign gen_relay_design(Rng& rng) {
  RelayDesign d = fabricated_relay();
  auto& g = d.geometry;
  g.length *= rng.uniform(0.8, 1.25);
  g.thickness *= rng.uniform(0.8, 1.25);
  g.gap *= rng.uniform(0.8, 1.25);
  g.gap_min = std::clamp(g.gap_min * rng.uniform(0.7, 1.4), 0.05 * g.gap,
                         0.95 * g.gap);
  d.adhesion_force *= rng.uniform(0.0, 2.0);
  return d;
}

VariationSpec gen_variation_spec(Rng& rng) {
  const VariationSpec fab = fabricated_variation();
  VariationSpec s;
  const double scale = rng.uniform(0.0, 2.0);
  s.sigma_length_rel = fab.sigma_length_rel * scale;
  s.sigma_thickness_rel = fab.sigma_thickness_rel * scale;
  s.sigma_gap_rel = fab.sigma_gap_rel * scale;
  s.sigma_gap_min_rel = fab.sigma_gap_min_rel * scale;
  s.sigma_adhesion_rel = fab.sigma_adhesion_rel * scale;
  return s;
}

CrossbarPattern gen_pattern(Rng& rng, std::size_t rows, std::size_t cols,
                            double p_fill) {
  CrossbarPattern p(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      p.set(r, c, rng.chance(p_fill));
    }
  }
  return p;
}

std::string gen_blif_text(Rng& rng) {
  SynthSpec spec;
  spec.name = "fuzz" + std::to_string(rng.next_u64());
  spec.n_luts = 3 + rng.uniform_int(20);
  spec.n_inputs = 2 + rng.uniform_int(5);
  spec.n_outputs = 1 + rng.uniform_int(4);
  spec.n_latches = rng.uniform_int(spec.n_luts / 3 + 1);
  spec.lut_inputs = 4;
  return write_blif_string(generate_netlist(spec));
}

std::string gen_placement_text(Rng& rng, std::size_t& blocks_out) {
  Placement pl;
  pl.nx = 2 + rng.uniform_int(6);
  pl.ny = 2 + rng.uniform_int(6);
  const std::size_t n = 1 + rng.uniform_int(24);
  pl.locs.resize(n);
  for (auto& l : pl.locs) {
    l.x = rng.uniform_int(pl.nx + 2);
    l.y = rng.uniform_int(pl.ny + 2);
    l.sub = rng.uniform_int(8);
  }
  blocks_out = n;
  return write_placement_string(pl);
}

}  // namespace nemfpga::verify
