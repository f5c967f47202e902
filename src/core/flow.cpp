#include "core/flow.hpp"

#include <stdexcept>

#include "service/flow_artifacts.hpp"
#include "timing/sta.hpp"
#include "verify/check.hpp"

namespace nemfpga {

FlowResult run_flow(Netlist netlist, const FlowOptions& opt) {
  FlowResult r;
  r.arch = opt.arch;
  r.netlist = std::move(netlist);
  r.packing = pack_netlist(r.netlist, r.arch);
  if (verify::checks_enabled()) {
    check_packing(r.netlist, r.arch, r.packing);
  }
  const auto [nx, ny] = grid_size_for(r.arch, r.packing.clusters.size(),
                                      r.packing.io_block_count());
  r.placement = place(r.netlist, r.packing, r.arch, nx, ny, opt.place);
  if (verify::checks_enabled()) {
    check_placement(r.packing, r.arch, r.placement);
  }
  // Pre-route immutable artifacts — backend-selected RR graph, lookahead
  // table, lowered delay model — built here or served by the shared
  // artifact cache; the routed result is bit-identical either way. Both
  // RR backends produce bit-identical routing by construction, and the
  // implicit backend no longer pays for a redundant explicit graph:
  // downstream consumers (bitstream, timing, power) read graph_view().
  FlowArtifacts art =
      make_flow_artifacts(opt.artifact_cache, r.arch, nx, ny, opt.route,
                          opt.timing_backend);
  r.graph = art.rr;
  r.igraph = art.irr;
  const RrGraphView gv = art.view();
  RouteOptions ropt = opt.route;
  if (art.lookahead) {
    ropt.lookahead = art.lookahead;
    ropt.lookahead_build_s = art.lookahead_build_s;
    ropt.lookahead_from_cache = art.lookahead_from_cache;
  }
  if (ropt.timing_driven) {
    // Unified delay layer: one electrical view feeds the delay model,
    // the delay-annotated lookahead and the incremental STA driving the
    // router's criticality blend (a fresh hook per route_all call).
    const ElectricalView view = make_view(r.arch, opt.timing_backend);
    const auto hook = make_incremental_sta(
        r.netlist, r.packing, r.placement, gv, view, ropt.criticality_exp,
        ropt.max_criticality, art.delay_model);
    ropt.timing_hook = hook.get();
    r.routing = route_all(gv, r.placement, ropt);
  } else {
    r.routing = route_all(gv, r.placement, ropt);
  }
  if (!r.routing.success) {
    throw std::runtime_error(
        "run_flow: unroutable at W=" + std::to_string(r.arch.W) +
        " (overused=" + std::to_string(r.routing.overused_nodes) + ")");
  }
  return r;
}

ChannelWidthResult flow_min_channel_width(Netlist netlist,
                                          const FlowOptions& opt,
                                          std::size_t w_hint) {
  const Packing packing = pack_netlist(netlist, opt.arch);
  const auto [nx, ny] = grid_size_for(opt.arch, packing.clusters.size(),
                                      packing.io_block_count());
  const Placement pl =
      place(netlist, packing, opt.arch, nx, ny, opt.place);
  RouteOptions ropt = opt.route;
  if (opt.artifact_cache != nullptr && !ropt.lookahead) {
    // The lookahead is W-independent, so the cache can hand the probe
    // table to find_min_channel_width up front — same table it would
    // build itself (Wmin probes are congestion-only, so no delay
    // annotation), now shared with every other flow on the fabric. The
    // implicit graph is only scaffolding for the table build.
    RouteOptions probe = ropt;
    probe.timing_driven = false;
    probe.rr_backend = RrBackend::kImplicit;
    const FlowArtifacts art = make_flow_artifacts(
        opt.artifact_cache, opt.arch, nx, ny, probe, opt.timing_backend);
    ropt.lookahead = art.lookahead;
    ropt.lookahead_build_s = art.lookahead_build_s;
    ropt.lookahead_from_cache = art.lookahead_from_cache;
  }
  return find_min_channel_width(opt.arch, pl, w_hint, ropt);
}

}  // namespace nemfpga
