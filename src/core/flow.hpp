// End-to-end CAD flow driver (the paper's Fig 10): netlist -> pack ->
// place -> route, producing one physical implementation that the variant
// analyses (CMOS-only vs CMOS-NEM) then re-evaluate electrically. The
// mapping is shared across variants, exactly as the paper maps each
// benchmark once with VPR and swaps circuit models. The pre-route
// artifacts depend on the fabric alone, so compile() builds them beside
// the placement: pack -> {place || artifacts} -> route.
#pragma once

#include <memory>
#include <string>

#include "arch/rr_graph.hpp"
#include "netlist/netlist.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "service/flow_artifacts.hpp"
#include "timing/variant.hpp"

namespace nemfpga {

struct FlowOptions {
  ArchParams arch;
  PlaceOptions place;
  RouteOptions route;
  /// Registry name of the switch-technology backend
  /// (device/switch_tech.hpp) driving the unified delay layer when
  /// route.timing_driven is set: run_flow builds the delay model and an
  /// incremental-STA timing hook from this backend's electrical view and
  /// hands both to the router (route.timing_hook is then managed
  /// internally and must be left null by callers).
  std::string timing_backend = "cmos";
  /// Shared content-addressed cache for the pre-route immutable
  /// artifacts (RR graph, lookahead table, delay model —
  /// src/service/artifact_cache.hpp). Null runs the classic fully
  /// self-contained build. The routed result is bit-identical either
  /// way (pinned by tests/prop/prop_flow_cache.cpp); the cache only
  /// changes which flow pays the build cost. Borrowed, not owned; must
  /// outlive the call.
  ArtifactCache* artifact_cache = nullptr;
};

/// A fully mapped design (owns or shares every intermediate product).
/// The RR graph is held backend-selectively: exactly one of graph /
/// igraph is non-null, per FlowOptions::route.rr_backend — implicit
/// flows no longer materialize the ~10x larger explicit graph at all.
/// Downstream consumers (bitstream, timing, power, reports) read
/// through graph_view(). The pointers are shared because the graph may
/// live in (and outlive this result via) the artifact cache.
struct FlowResult {
  Netlist netlist;
  ArchParams arch;
  Packing packing;
  Placement placement;
  std::shared_ptr<const RrGraph> graph;
  std::shared_ptr<const ImplicitRrGraph> igraph;
  RoutingResult routing;

  RrGraphView graph_view() const {
    return igraph ? RrGraphView(*igraph) : RrGraphView(*graph);
  }
  bool routed() const { return routing.success; }
};

/// A packed and placed design with its pre-route artifacts: what every
/// flow entry point holds just before routing.
struct CompiledDesign {
  Packing packing;
  Placement placement;
  FlowArtifacts artifacts;
};

/// Which pre-route artifacts compile() builds beside the placement.
enum class PreRoute {
  kRoute,        ///< make_flow_artifacts: RR graph, lookahead, delay model.
  kWidthSearch,  ///< The probes' shared lookahead alone (none if
                 ///< opt.route.lookahead is already set).
};

/// The flow's stages before routing, shared by run_flow, EcoFlow and
/// flow_min_channel_width: pack, then place beside the pre-route
/// artifacts (ThreadPool::run_beside on ThreadPool::current()). The
/// annealer is the side stage; the artifacts build on the calling
/// thread. Neither stage reads the other's output, so the result is
/// bit-identical to running them one after another.
CompiledDesign compile(const Netlist& netlist, const FlowOptions& opt,
                       PreRoute pre_route = PreRoute::kRoute);

/// Run pack/place/route. Throws std::runtime_error if routing fails at the
/// requested channel width.
FlowResult run_flow(Netlist netlist, const FlowOptions& opt);

/// Determine this circuit's minimum channel width (paper Sec 3.3): packs
/// and places once (building the probes' lookahead beside the placement),
/// then binary-searches W.
ChannelWidthResult flow_min_channel_width(Netlist netlist,
                                          const FlowOptions& opt,
                                          std::size_t w_hint = 64);

}  // namespace nemfpga
