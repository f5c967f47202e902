// Canonical cache keys and the cached-artifact bundle a flow needs
// before routing. The key rules encode exactly what each artifact is a
// function of — nothing more (over-keying silently halves the hit rate;
// the canonicalization unit tests in tests/test_artifact_cache.cpp pin
// both directions):
//
//   RrGraph / ImplicitRrGraph  ("rr/", "irr/")
//     every ArchParams field + grid (nx, ny). W, fc_in, fc_out and
//     dense_fanout all shape the node/edge set, so they key; so does
//     the switch-block pattern (sb_pattern, plus sb_custom_rot when
//     custom), which selects the turn edges.
//
//   RouteLookahead  ("la/")
//     the table is built over a thin canonical graph that OVERRIDES
//     W = 2L, fc = 1.0 and dense_fanout (src/arch/lookahead.cpp), so
//     those four fields are excluded: one table serves every channel
//     width and fc pattern of the same fabric — the property
//     find_min_channel_width has relied on since PR 4, now made
//     cache-visible so Wmin probes, run_flow and every serve job on the
//     fabric share one table. The delay-annotated twin additionally
//     keys on the two DelayProfile constants. The switch-block pattern
//     keys too (via the shared fabric prefix) even though the thin
//     graph's dense_fanout makes the table content pattern-independent:
//     no cached artifact may alias across patterns, and the admissible
//     superset argument stays a property of the builder, not of the
//     cache.
//
//   DelayModel  ("dm/")
//     node_delay is parallel to the RR node order, so the full arch +
//     grid keys, plus the registry name of the switch-technology
//     backend the ElectricalView is lowered from — no cached model may
//     alias across technologies. Flows overriding make_view's
//     tech/relay/downsize defaults must not use the shared cache
//     (run_flow never does).
//
// Doubles are rendered with %.17g (round-trip exact), so two ArchParams
// compare equal iff their key strings do.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "arch/lookahead.hpp"
#include "arch/rr_graph.hpp"
#include "route/route.hpp"
#include "service/artifact_cache.hpp"
#include "timing/delay_model.hpp"
#include "timing/variant.hpp"

namespace nemfpga {

std::string rr_graph_key(const ArchParams& arch, std::size_t nx,
                         std::size_t ny, RrBackend backend);
std::string lookahead_key(const ArchParams& arch, std::size_t nx,
                          std::size_t ny, const DelayProfile* delay);
std::string delay_model_key(const ArchParams& arch, std::size_t nx,
                            std::size_t ny, std::string_view backend);
/// Paper-variant convenience: keys on variant_backend_name(variant).
std::string delay_model_key(const ArchParams& arch, std::size_t nx,
                            std::size_t ny, FpgaVariant variant);

/// The pre-route immutable artifacts of one (arch, grid, options) tuple.
/// Exactly one of rr / irr is set, per RouteOptions::rr_backend — the
/// redundant explicit build for implicit-backend flows is gone (ISSUE 9
/// satellite); downstream consumers read through view().
struct FlowArtifacts {
  std::shared_ptr<const RrGraph> rr;
  std::shared_ptr<const ImplicitRrGraph> irr;
  std::shared_ptr<const RouteLookahead> lookahead;
  std::shared_ptr<const DelayModel> delay_model;
  /// Wall seconds THIS call spent building the lookahead (0 when it came
  /// out of the cache or another thread's in-flight build) — feeds
  /// RouteOptions::lookahead_build_s so RouteCounters accounting stays
  /// honest across cache hits.
  double lookahead_build_s = 0.0;
  bool lookahead_from_cache = false;
  bool rr_from_cache = false;
  bool delay_model_from_cache = false;

  RrGraphView view() const {
    return irr ? RrGraphView(*irr) : RrGraphView(*rr);
  }
};

/// Build (cache == nullptr) or fetch-or-build (cache != nullptr) the
/// artifacts `route_all` and the timing hook need for a flow over
/// (arch, nx, ny): the backend-selected RR graph, the lookahead table
/// when ropt.lookahead is unset, and the delay model when
/// ropt.timing_driven. The artifacts are bit-identical
/// either way — the cache only changes who pays the build.
FlowArtifacts make_flow_artifacts(ArtifactCache* cache,
                                  const ArchParams& arch, std::size_t nx,
                                  std::size_t ny, const RouteOptions& ropt,
                                  std::string_view timing_backend);

}  // namespace nemfpga
