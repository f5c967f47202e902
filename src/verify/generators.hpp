// Seeded random-case generators for the property-based differential
// harness: small netlists, architectures, packed+placed designs, relay
// populations, and crossbar patterns. Every generator is a pure function
// of the Rng it draws from, and the heavyweight descriptors (DesignCase)
// carry their own seeds so a case rebuilds identically during shrinking
// and replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "arch/rr_graph.hpp"
#include "device/variation.hpp"
#include "netlist/delta.hpp"
#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "program/crossbar.hpp"
#include "route/route.hpp"
#include "util/rng.hpp"

namespace nemfpga::verify {

/// A self-contained CAD-flow test case: the synthetic-netlist spec, the
/// architecture, and the option/seed set needed to rebuild the identical
/// packed+placed design from scratch (shrinkers mutate this descriptor and
/// the property re-derives everything from it).
struct DesignCase {
  SynthSpec spec;
  ArchParams arch;
  RouteOptions route;
  std::uint64_t place_seed = 1;
  double place_inner_num = 0.1;
  /// Placer knob under differential test (place.hpp): the
  /// timing-driven second anneal.
  bool place_timing = false;

  std::string describe() const;
};

/// Draw a small random DesignCase (6..~70 LUTs, narrow channels so the
/// router actually negotiates congestion).
DesignCase gen_design_case(Rng& rng);

/// Shrink candidates: fewer LUTs/latches/IOs, narrower W, simpler route
/// options — each strictly "smaller" so greedy shrinking terminates.
std::vector<DesignCase> shrink_design_case(const DesignCase& c);

/// The built form of a DesignCase (everything the router/STA consume).
struct BuiltDesign {
  Netlist nl;
  ArchParams arch;
  Packing pk;
  Placement pl;
  std::size_t nx = 0, ny = 0;
};

/// Deterministically rebuild (generate, pack, place) a DesignCase.
BuiltDesign build_design(const DesignCase& c);

/// A randomized ECO replay case: a base design plus a seeded edit
/// stream. The stream itself is drawn step by step with gen_eco_delta
/// against the *current* design state (edits compound), so the
/// descriptor stores only the seed and length and a replay regenerates
/// the identical stream.
struct EcoCase {
  DesignCase design;
  std::uint64_t edit_seed = 1;
  std::size_t n_edits = 4;

  std::string describe() const;
};

/// Draw a small random EcoCase (design sized like gen_design_case, 1..12
/// edits). The design's W is drawn generously so most bases route.
EcoCase gen_eco_case(Rng& rng);

/// Shrink candidates: fewer edits first (the cheapest reduction), then
/// the design shrinks of shrink_design_case.
std::vector<EcoCase> shrink_eco_case(const EcoCase& c);

/// Draw one randomized delta against the current design state: pin
/// connects/disconnects/retargets, block moves and swaps (1..3 ops).
/// Most ops satisfy the ECO preconditions; a deliberate minority
/// violates one (bad pin, occupied site, K overflow, fused net) so every
/// replay also exercises the transactional-rejection path.
NetlistDelta gen_eco_delta(Rng& rng, const Netlist& nl, const Packing& pk,
                           const ArchParams& arch, std::size_t nx,
                           std::size_t ny,
                           const std::vector<BlockLoc>& locs);

/// Random relay design near the fabricated device (varied geometry).
RelayDesign gen_relay_design(Rng& rng);

/// Random variation spec (0..~2x the fabricated tolerances).
VariationSpec gen_variation_spec(Rng& rng);

/// Random crossbar pattern with the given fill probability.
CrossbarPattern gen_pattern(Rng& rng, std::size_t rows, std::size_t cols,
                            double p_fill);

/// A valid BLIF text for parser fuzzing (random netlist, serialized).
std::string gen_blif_text(Rng& rng);

/// A valid placement text for parser fuzzing; `blocks_out` receives the
/// block count the text describes.
std::string gen_placement_text(Rng& rng, std::size_t& blocks_out);

}  // namespace nemfpga::verify
