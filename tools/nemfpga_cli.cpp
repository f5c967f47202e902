// nemfpga — command-line driver for the CMOS-NEM FPGA toolkit.
//
//   nemfpga flow   --benchmark alu4 [--width 118] [--study] [--activity]
//   nemfpga flow   --blif design.blif [...]
//   nemfpga flow   --synth 1000 [--inputs N] [--latches N] [...]
//   nemfpga width  --benchmark alu4            # find Wmin / 1.2x Wmin
//   nemfpga eco    --benchmark tseng [--edits 20] [--edit-seed 1]
//   nemfpga serve  [--port 0] [--threads 8] [--cache-mb 4096]
//   nemfpga device                             # relay device card
//
// Exit code 0 on success; diagnostic text on stderr, reports on stdout.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/study.hpp"
#include "device/equivalent.hpp"
#include "device/switch_tech.hpp"
#include "flow/eco.hpp"
#include "netlist/blif.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/simulate.hpp"
#include "netlist/synth_gen.hpp"
#include "route/report.hpp"
#include "service/server.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"

using namespace nemfpga;

namespace {

struct Args {
  std::string command;
  std::optional<std::string> benchmark;
  std::optional<std::string> blif;
  std::optional<std::size_t> synth_luts;
  std::size_t inputs = 32;
  std::size_t outputs = 32;
  std::size_t latches = 0;
  std::size_t width = 118;
  bool study = false;
  bool activity = false;
  bool timing = false;
  bool place_timing = false;
  double crit_exp = 1.0;
  std::string variant = "cmos";
  std::string sb_pattern = "wilton";
  std::optional<double> downsize;
  std::size_t edits = 20;
  std::uint64_t edit_seed = 1;
  std::size_t port = 0;
  std::size_t threads = 8;
  std::size_t cache_mb = 4096;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: nemfpga <command> [options]\n"
               "commands:\n"
               "  flow    map a circuit and report timing/power/area\n"
               "  width   find the minimum routable channel width\n"
               "  eco     replay a seeded edit stream through a live\n"
               "          incremental ECO session and report per-edit\n"
               "          reroute latency\n"
               "  serve   long-lived flow-as-a-service daemon: accepts\n"
               "          place-and-route jobs as newline-delimited JSON\n"
               "          over TCP (loopback) and runs them concurrently\n"
               "          over a shared content-addressed artifact cache\n"
               "  device  print the NEM relay device card\n"
               "options:\n"
               "  --benchmark NAME   a cataloged circuit (e.g. alu4, clma)\n"
               "  --blif FILE        read a mapped BLIF netlist\n"
               "  --synth N          generate an N-LUT synthetic circuit\n"
               "  --inputs N --outputs N --latches N   synth parameters\n"
               "                     (--synth and --inputs at least 1)\n"
               "  --width W          channel width (default 118, at least 2)\n"
               "  --timing           timing-driven routing (incremental STA\n"
               "                     criticalities blend into the PathFinder\n"
               "                     cost; delays from --variant's view)\n"
               "  --crit-exp E       criticality sharpening exponent "
               "(default 1.0)\n"
               "  --place-timing     criticality-weighted second anneal in\n"
               "                     the placer (reports both the\n"
               "                     bounding-box and weighted objectives)\n"
               "  --backend B        switch-technology backend (registered:\n"
               "                     cmos | nem-naive | nem-opt | rram);\n"
               "                     --variant is an alias\n"
               "  --sb-pattern P     switch-block pattern: wilton | subset |\n"
               "                     universal | custom (default wilton)\n"
               "  --downsize D       wire-buffer downsizing (1..8); only a\n"
               "                     backend with the wire-downsize policy\n"
               "                     (nem-opt) accepts values != 1; default\n"
               "                     4 on nem-opt, 1 elsewhere\n"
               "  --study            full CMOS vs CMOS-NEM comparison\n"
               "  --activity         simulate per-net switching activities\n"
               "  --edits N          eco: edit-stream length (default 20)\n"
               "  --edit-seed S      eco: edit-stream seed (default 1)\n"
               "  --port P           serve: TCP port (default 0 = pick an\n"
               "                     ephemeral port and print it)\n"
               "  --threads N        serve: concurrent flow workers "
               "(default 8, at most 256)\n"
               "  --cache-mb N       serve: artifact-cache budget "
               "(default 4096)\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  const FlagParser fp("nemfpga", argc, argv);
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* f = flag.c_str();
    if (flag == "--benchmark") a.benchmark = fp.flag_operand(f, i);
    else if (flag == "--blif") a.blif = fp.flag_operand(f, i);
    else if (flag == "--synth") a.synth_luts = fp.parse_size_flag(f, i, 1);
    else if (flag == "--inputs") a.inputs = fp.parse_size_flag(f, i, 1);
    else if (flag == "--outputs") a.outputs = fp.parse_size_flag(f, i);
    else if (flag == "--latches") a.latches = fp.parse_size_flag(f, i);
    else if (flag == "--width") a.width = fp.parse_size_flag(f, i, 2);
    else if (flag == "--variant" || flag == "--backend") {
      a.variant = fp.flag_operand(f, i);
    } else if (flag == "--sb-pattern") a.sb_pattern = fp.flag_operand(f, i);
    else if (flag == "--downsize") a.downsize = fp.parse_double_flag(f, i);
    else if (flag == "--timing") a.timing = true;
    else if (flag == "--place-timing") a.place_timing = true;
    else if (flag == "--crit-exp") a.crit_exp = fp.parse_double_flag(f, i);
    else if (flag == "--edits") a.edits = fp.parse_size_flag(f, i);
    else if (flag == "--edit-seed") a.edit_seed = fp.parse_size_flag(f, i);
    else if (flag == "--port") a.port = fp.parse_size_flag(f, i);
    else if (flag == "--threads") {
      a.threads = fp.parse_size_flag(f, i, 0, kMaxThreads);
    } else if (flag == "--cache-mb") a.cache_mb = fp.parse_size_flag(f, i);
    else if (flag == "--study") a.study = true;
    else if (flag == "--activity") a.activity = true;
    else usage(("unknown option " + flag).c_str());
  }
  return a;
}

Netlist load_netlist(const Args& a) {
  int sources = (a.benchmark ? 1 : 0) + (a.blif ? 1 : 0) + (a.synth_luts ? 1 : 0);
  if (sources != 1) usage("give exactly one of --benchmark/--blif/--synth");
  if (a.benchmark) return generate_benchmark(*a.benchmark);
  if (a.blif) return read_blif_file(*a.blif, 4);
  SynthSpec spec;
  spec.name = "cli-synth";
  spec.n_luts = *a.synth_luts;
  spec.n_inputs = a.inputs;
  spec.n_outputs = a.outputs;
  spec.n_latches = a.latches;
  return generate_netlist(spec);
}

/// Canonical registry name for --backend/--variant; unknown names list
/// the registered backends.
std::string parse_backend(const std::string& v) {
  if (!switch_technology_registered(v)) {
    usage(("bad value for --backend: '" + v + "' (registered: " +
           registered_switch_technology_names() + ")")
              .c_str());
  }
  return std::string(switch_technology(v).name());
}

SbPattern parse_sb_pattern(const std::string& v) {
  if (v != "wilton" && v != "subset" && v != "universal" && v != "custom") {
    usage(("bad value for --sb-pattern: '" + v +
           "' (recognized: " + sb_pattern_names() + ")")
              .c_str());
  }
  return sb_pattern_from_name(v);
}

/// Effective wire-buffer downsize: an explicit --downsize is passed
/// through verbatim (make_view rejects unusable values with a named
/// error); without one, a downsizing-capable backend gets the paper's
/// preferred 4x and everything else the neutral 1x.
double effective_downsize(const Args& a, const std::string& backend) {
  if (a.downsize) return *a.downsize;
  return switch_technology(backend).buffer_policy().supports_wire_downsize
             ? 4.0
             : 1.0;
}

int cmd_flow(const Args& a) {
  Netlist nl = load_netlist(a);
  std::fprintf(stderr, "netlist: %zu LUTs, %zu FFs, %zu IOs, %zu nets\n",
               nl.lut_count(), nl.latch_count(),
               nl.input_count() + nl.output_count(), nl.net_count());

  std::optional<ActivityResult> act;
  if (a.activity) {
    std::fprintf(stderr, "simulating switching activities...\n");
    act = estimate_activity(nl);
    std::fprintf(stderr, "mean activity: %.3f\n", act->mean_activity);
  }

  const std::string backend = parse_backend(a.variant);
  FlowOptions opt;
  opt.arch.W = a.width;
  opt.arch.sb_pattern = parse_sb_pattern(a.sb_pattern);
  opt.place.timing_driven = a.place_timing;
  if (a.timing) {
    opt.route.timing_driven = true;
    opt.route.criticality_exp = a.crit_exp;
    opt.timing_backend = backend;
  }
  std::fprintf(stderr, "mapping at W=%zu%s...\n", a.width,
               a.timing ? " (timing-driven)" : "");
  const FlowResult flow = run_flow(std::move(nl), opt);
  std::fprintf(stderr,
               "placed %zu clusters on %zux%zu; routed %zu nets in %zu "
               "iterations\n",
               flow.packing.clusters.size(), flow.placement.nx,
               flow.placement.ny, flow.placement.nets.size(),
               flow.routing.iterations);
  if (flow.placement.final_weighted_cost != flow.placement.final_cost) {
    std::fprintf(stderr,
                 "placer: bounding-box cost %.1f (criticality-weighted "
                 "objective %.1f)\n",
                 flow.placement.final_cost,
                 flow.placement.final_weighted_cost);
  } else {
    std::fprintf(stderr, "placer: bounding-box cost %.1f\n",
                 flow.placement.final_cost);
  }
  const RouteCounters& rc = flow.routing.counters;
  std::fprintf(stderr,
               "router: %llu nodes expanded, %llu heap pushes, "
               "%llu lookahead hits, %llu parallel batches, "
               "%llu conflict replays (lookahead build %.3f s)\n",
               static_cast<unsigned long long>(rc.nodes_expanded),
               static_cast<unsigned long long>(rc.heap_pushes),
               static_cast<unsigned long long>(rc.lookahead_hits),
               static_cast<unsigned long long>(rc.batches),
               static_cast<unsigned long long>(rc.conflict_replays),
               rc.t_lookahead_build_s);
  std::fprintf(stderr, "%s",
               summarize_routing(flow.graph_view(), flow.placement,
                                 flow.routing)
                   .to_string()
                   .c_str());

  PowerOptions popt;
  if (act) popt.net_activity = &act->net_activity;

  if (a.study) {
    const StudyResult st = run_study(flow, default_downsizes(), popt);
    TextTable t({"design", "critical path", "dynamic", "leakage", "area"});
    auto row = [&](const std::string& name, const VariantMetrics& m) {
      t.add_row({name, TextTable::num(m.critical_path * 1e9, 3) + " ns",
                 TextTable::num(m.dynamic_power * 1e3, 3) + " mW",
                 TextTable::num(m.leakage_power * 1e3, 3) + " mW",
                 TextTable::num(m.area * 1e6, 4) + " mm2"});
    };
    row("CMOS-only", st.baseline);
    row("CMOS-NEM naive", st.naive.metrics);
    row("CMOS-NEM opt (d=" + TextTable::num(st.preferred.downsize, 1) + ")",
        st.preferred.metrics);
    std::printf("%s\n", t.to_string().c_str());
    std::printf("preferred corner vs baseline: %.2fx speed, %.2fx dynamic, "
                "%.2fx leakage, %.2fx area\n",
                st.preferred.vs.speedup, st.preferred.vs.dynamic_reduction,
                st.preferred.vs.leakage_reduction,
                st.preferred.vs.area_reduction);
    return 0;
  }

  const auto m = evaluate_backend(flow, backend,
                                  effective_downsize(a, backend), popt);
  std::printf("backend        : %s  (sb pattern %s)\n", backend.c_str(),
              a.sb_pattern.c_str());
  std::printf("critical path  : %.3f ns  (fmax %.1f MHz)\n",
              m.critical_path * 1e9, 1e-6 / m.critical_path);
  std::printf("dynamic power  : %.3f mW\n", m.dynamic_power * 1e3);
  std::printf("leakage power  : %.3f mW\n", m.leakage_power * 1e3);
  std::printf("fabric area    : %.4f mm2\n", m.area * 1e6);
  return 0;
}

int cmd_width(const Args& a) {
  Netlist nl = load_netlist(a);
  FlowOptions opt;
  opt.arch.W = a.width;
  opt.arch.sb_pattern = parse_sb_pattern(a.sb_pattern);
  const auto cw = flow_min_channel_width(std::move(nl), opt);
  if (!cw.feasible) {
    std::fprintf(stderr,
                 "width: infeasible — the grow phase hit the W=%zu cap "
                 "without ever routing\n", cw.w_cap);
    return 1;
  }
  std::printf("Wmin        : %zu\n", cw.w_min);
  std::printf("1.2 x Wmin  : %zu (low-stress operating width)\n",
              cw.w_low_stress);
  return 0;
}

int cmd_eco(const Args& a) {
  Netlist nl = load_netlist(a);
  std::fprintf(stderr, "netlist: %zu LUTs, %zu FFs, %zu nets\n",
               nl.lut_count(), nl.latch_count(), nl.net_count());
  EcoOptions opt;
  opt.arch.W = a.width;
  opt.arch.sb_pattern = parse_sb_pattern(a.sb_pattern);
  opt.timing_backend = parse_backend(a.variant);
  const auto now_s = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  std::fprintf(stderr, "compiling base session at W=%zu...\n", a.width);
  double t0 = now_s();
  EcoFlow flow(std::move(nl), opt);
  std::fprintf(stderr, "base compile: %.2f s (%s)\n", now_s() - t0,
               flow.routed() ? "routed" : "UNROUTABLE");
  if (!flow.routed()) return 1;

  std::size_t ok = 0, rejected = 0, unroutable = 0;
  double worst_apply_s = 0.0, total_apply_s = 0.0;
  for (std::size_t step = 0; step < a.edits; ++step) {
    Rng erng = Rng::from_stream(a.edit_seed, step);
    const NetlistDelta d = verify::gen_eco_delta(
        erng, flow.netlist(), flow.packing(), flow.arch(), flow.nx(),
        flow.ny(), flow.placement().locs);
    t0 = now_s();
    const EcoResult r = flow.apply(d);
    const double dt = now_s() - t0;
    switch (r.status) {
      case EcoStatus::kOk:
        ++ok;
        total_apply_s += dt;
        worst_apply_s = dt > worst_apply_s ? dt : worst_apply_s;
        std::printf("edit %3zu: ok        %7.2f ms  %zu nets rerouted "
                    "(%zu invalidated), %zu blocks moved%s%s, "
                    "cp %+.3f ns -> %.3f ns\n",
                    step, dt * 1e3, r.nets_rerouted, r.nets_invalidated,
                    r.blocks_moved, r.full_fallback ? ", FULL FALLBACK" : "",
                    r.cycle_detected ? ", comb cycle (timing off)" : "",
                    r.cp_delta_s * 1e9, r.critical_path_s * 1e9);
        break;
      case EcoStatus::kRejected:
        ++rejected;
        std::printf("edit %3zu: rejected  (%s)\n", step,
                    r.reject_reason.c_str());
        break;
      case EcoStatus::kUnroutable:
        ++unroutable;
        std::printf("edit %3zu: UNROUTABLE at W=%zu\n", step, a.width);
        break;
      case EcoStatus::kNoop:
        std::printf("edit %3zu: noop\n", step);
        break;
    }
  }
  std::printf("\n%zu ok, %zu rejected, %zu unroutable over %zu edits\n",
              ok, rejected, unroutable, a.edits);
  if (ok > 0) {
    std::printf("apply latency: mean %.2f ms, worst %.2f ms\n",
                total_apply_s / static_cast<double>(ok) * 1e3,
                worst_apply_s * 1e3);
  }
  if (flow.has_comb_cycle()) {
    std::printf("final state has a combinational cycle: timing invalid "
                "(last valid critical path %.3f ns)\n",
                flow.critical_path_s() * 1e9);
  } else if (flow.critical_path_s() > 0.0) {
    std::printf("final critical path: %.3f ns  (fmax %.1f MHz)\n",
                flow.critical_path_s() * 1e9,
                1e-6 / flow.critical_path_s());
  }
  return 0;
}

int cmd_serve(const Args& a) {
  if (a.port > 65535) usage("--port must be <= 65535");
  ServeOptions opt;
  opt.port = static_cast<std::uint16_t>(a.port);
  opt.workers = a.threads;
  opt.cache_bytes = a.cache_mb << 20;
  ServeServer server(opt);
  std::fprintf(stderr,
               "nemfpga serve: listening on 127.0.0.1:%u (%zu workers, "
               "%zu MB artifact cache)\n",
               static_cast<unsigned>(server.port()), a.threads, a.cache_mb);
  std::fprintf(stderr,
               "protocol: newline-delimited JSON, e.g.\n"
               "  {\"op\":\"flow\",\"id\":1,\"benchmark\":\"tseng\","
               "\"w\":64}\n"
               "  {\"op\":\"stats\"} / {\"op\":\"shutdown\"}\n");
  server.run();
  std::fprintf(stderr, "nemfpga serve: %s\n", server.stats_json().c_str());
  return 0;
}

int cmd_device() {
  for (const auto& [label, d] :
       {std::pair{"fabricated (Fig 2b)", fabricated_relay()},
        std::pair{"scaled 22nm (Fig 11)", scaled_relay_22nm()}}) {
    const auto eq = equivalent_circuit(d);
    std::printf("%s:\n", label);
    std::printf("  L=%.3g um  h=%.3g nm  g0=%.3g nm  gmin=%.3g nm  (%s)\n",
                d.geometry.length * 1e6, d.geometry.thickness * 1e9,
                d.geometry.gap * 1e9, d.geometry.gap_min * 1e9,
                d.ambient.name.c_str());
    std::printf("  Vpi=%.3f V  Vpo=%.3f V  window=%.3f V  f0=%.3g MHz\n",
                d.pull_in_voltage(), d.pull_out_voltage(),
                d.hysteresis_window(), d.resonant_frequency() / 1e6);
    std::printf("  Ron=%.3g kOhm  Con=%.3g aF  Coff=%.3g aF  Ioff=0\n\n",
                eq.ron / 1e3, eq.con * 1e18, eq.coff * 1e18);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "flow") return cmd_flow(a);
    if (a.command == "width") return cmd_width(a);
    if (a.command == "eco") return cmd_eco(a);
    if (a.command == "serve") return cmd_serve(a);
    if (a.command == "device") return cmd_device();
    usage(("unknown command " + a.command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
