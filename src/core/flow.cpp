#include "core/flow.hpp"

#include <stdexcept>

#include "timing/sta.hpp"
#include "util/thread_pool.hpp"
#include "verify/check.hpp"

namespace nemfpga {

CompiledDesign compile(const Netlist& netlist, const FlowOptions& opt,
                       PreRoute pre_route) {
  CompiledDesign d;
  d.packing = pack_netlist(netlist, opt.arch);
  if (verify::checks_enabled()) {
    check_packing(netlist, opt.arch, d.packing);
  }
  const auto [nx, ny] = grid_size_for(opt.arch, d.packing.clusters.size(),
                                      d.packing.io_block_count());
  // The annealer is the side stage, so the long-lived RR graph is
  // allocated on the calling thread: built on a worker it would land in
  // that thread's malloc arena and raise the peak RSS (EXPERIMENTS.md,
  // "Artifacts beside the annealer").
  ThreadPool::current().run_beside(
      [&] {
        d.placement = place(netlist, d.packing, opt.arch, nx, ny, opt.place);
      },
      [&] {
        if (pre_route == PreRoute::kRoute) {
          d.artifacts = make_flow_artifacts(opt.artifact_cache, opt.arch, nx,
                                            ny, opt.route,
                                            opt.timing_backend);
        } else if (!opt.route.lookahead) {
          d.artifacts = make_width_search_lookahead(opt.artifact_cache,
                                                    opt.arch, nx, ny);
        }
      });
  if (verify::checks_enabled()) {
    check_placement(d.packing, opt.arch, d.placement);
  }
  return d;
}

FlowResult run_flow(Netlist netlist, const FlowOptions& opt) {
  FlowResult r;
  r.arch = opt.arch;
  r.netlist = std::move(netlist);
  // Pre-route immutable artifacts — backend-selected RR graph, lookahead
  // table, lowered delay model — built beside the placement or served by
  // the shared artifact cache; the routed result is bit-identical either
  // way. Downstream consumers (bitstream, timing, power) read
  // graph_view().
  CompiledDesign d = compile(r.netlist, opt);
  r.packing = std::move(d.packing);
  r.placement = std::move(d.placement);
  const FlowArtifacts& art = d.artifacts;
  r.graph = art.rr;
  r.igraph = art.irr;
  const RrGraphView gv = art.view();
  RouteOptions ropt = opt.route;
  art.give_lookahead(ropt);
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
  // The lookahead is W-independent, so it is built (or fetched from the
  // cache, shared with every other flow on the fabric) beside the
  // placement and handed to every probe. Wmin probes are congestion-only,
  // so it carries no delay annotation.
  const CompiledDesign d = compile(netlist, opt, PreRoute::kWidthSearch);
  RouteOptions ropt = opt.route;
  d.artifacts.give_lookahead(ropt);
  return find_min_channel_width(opt.arch, d.placement, w_hint, ropt);
}

}  // namespace nemfpga
