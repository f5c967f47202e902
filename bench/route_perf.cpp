// Router performance harness: routes seed circuits at a fixed channel
// width and through the full find_min_channel_width search, and emits
// BENCH_route.json (wall times, router work counters, Wmin, RR-graph
// memory) so every PR leaves a perf trajectory to regress against
// (tools/bench_check.py diffs two such files).
//
//   route_perf [--out FILE] [--circuits a,b,c] [--smoke] [--scale]
//              [--threads N] [--astar F] [--par 0|1] [--timing]
//              [--crit-exp E] [--backend explicit|implicit]
//              [--max-w N] [--verify-la]
//
// --smoke runs only the smallest seed circuit (CTest target bench_smoke
// exercises the harness this way). --scale replaces the MCNC seed list
// with three synthetic circuits of increasing size (about 10-, 16- and
// 24-tile grids) — the memory-scaling experiment of EXPERIMENTS.md: run
// it once per --backend and compare rr_bytes_per_node at fixed Wmin and
// tree checksums (both must be backend-invariant). --threads installs
// its own pool for the whole run (default: the ambient NF_THREADS pool).
// --astar sets RouteOptions::astar_factor (finite, > 0). --timing routes
// the fixed-width pass timing-driven
// (an incremental-STA hook over the CMOS baseline view; the Wmin search
// stays congestion-only by construction) and records the post-route
// critical path. --backend selects the RR representation (stored CSR vs
// coordinate-computed). --max-w caps the Wmin grow phase: a circuit that cannot route below
// the cap is reported as "infeasible" in the JSON instead of aborting
// the run. Wall times and peak RSS vary run to run; Wmin, iteration,
// counter, checksum and critical-path fields are bit-deterministic at
// any thread count and across backends.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"
#include "timing/variant.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "verify/check.hpp"

using namespace nemfpga;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far, in bytes (Linux reports
/// ru_maxrss in KiB). Dominated by the largest RR graph the run built,
/// which is exactly what the implicit backend is supposed to shrink.
std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

RrBackend parse_backend_flag(const FlagParser& fp, const char* flag,
                             int& i) {
  const char* tok = fp.flag_operand(flag, i);
  if (!std::strcmp(tok, "explicit")) return RrBackend::kExplicit;
  if (!std::strcmp(tok, "implicit")) return RrBackend::kImplicit;
  fp.flag_error(flag, tok);
}

// -------------------------------------------------------------------------

std::uint64_t routing_checksum(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& t : r.trees) {
    mix(t.source);
    mix(t.edges.size());
    for (const auto& [from, to] : t.edges) {
      mix((static_cast<std::uint64_t>(from) << 32) | to);
    }
    for (RrNodeId s : t.sinks) mix(s);
  }
  return h;
}

struct CircuitReport {
  std::string name;
  std::size_t luts = 0;
  std::size_t nets = 0;
  std::size_t w_min = 0;
  double wmin_wall_s = 0.0;
  std::size_t w_fixed = 0;
  double route_wall_s = 0.0;
  std::size_t iterations = 0;
  std::uint64_t checksum = 0;
  /// The grow phase hit RouteOptions::max_channel_width (= w_cap here)
  /// without routing: no fixed-width pass ran, routing fields are 0.
  bool infeasible = false;
  std::size_t w_cap = 0;
  /// Resident size of the fixed-width RR representation actually routed
  /// over (explicit: node records + CSR + site/cover tables; implicit:
  /// prefix/tap tables only) — the tentpole memory claim, per node.
  std::size_t rr_nodes = 0;
  std::size_t rr_bytes = 0;
  RoutingResult fixed;  ///< counters live here
};

/// Router configuration under test; set once from the command line.
RouteOptions g_route_opt;

CircuitReport run_circuit(const std::string& name, const Netlist& nl,
                          std::size_t luts) {
  CircuitReport rep;
  rep.name = name;
  rep.luts = luts;

  ArchParams arch;
  arch.W = 64;  // provisional; only pack/place look at it
  const Packing pk = pack_netlist(nl, arch);
  const auto [nx, ny] =
      grid_size_for(arch, pk.clusters.size(), pk.io_block_count());
  PlaceOptions popt;
  popt.inner_num = 0.3;  // placement quality is not under test here
  const Placement pl = place(nl, pk, arch, nx, ny, popt);
  rep.nets = pl.nets.size();

  double t0 = now_s();
  const ChannelWidthResult cw = find_min_channel_width(arch, pl, 48,
                                                       g_route_opt);
  rep.wmin_wall_s = now_s() - t0;
  if (!cw.feasible) {
    rep.infeasible = true;
    rep.w_cap = cw.w_cap;
    return rep;
  }
  rep.w_min = cw.w_min;
  rep.w_fixed = cw.w_low_stress;

  ArchParams fixed_arch = arch;
  fixed_arch.W = rep.w_fixed;
  std::unique_ptr<RrGraph> eg;
  std::unique_ptr<ImplicitRrGraph> ig;
  if (g_route_opt.rr_backend == RrBackend::kImplicit) {
    ig = std::make_unique<ImplicitRrGraph>(fixed_arch, nx, ny);
  } else {
    eg = std::make_unique<RrGraph>(fixed_arch, nx, ny);
  }
  const RrGraphView g = ig ? RrGraphView(*ig) : RrGraphView(*eg);
  rep.rr_nodes = g.node_count();
  rep.rr_bytes = g.memory_bytes();
  // Timing-driven runs need a fresh hook per route_all; the Wmin search
  // above stays congestion-only (width probes force timing off).
  std::unique_ptr<RouterTimingHook> hook;
  RouteOptions ropt = g_route_opt;
  if (ropt.timing_driven) {
    const ElectricalView view =
        make_view(fixed_arch, FpgaVariant::kCmosBaseline);
    hook = make_incremental_sta(nl, pk, pl, g, view, ropt.criticality_exp,
                                ropt.max_criticality);
    ropt.timing_hook = hook.get();
  }
  t0 = now_s();
  rep.fixed = route_all(g, pl, ropt);
  rep.route_wall_s = now_s() - t0;
  if (!rep.fixed.success) {
    std::fprintf(stderr, "route_perf: %s unroutable at low-stress W=%zu\n",
                 name.c_str(), rep.w_fixed);
    std::exit(1);
  }
  check_routing(g, pl, rep.fixed);
  rep.iterations = rep.fixed.iterations;
  rep.checksum = routing_checksum(rep.fixed);
  return rep;
}

void write_json(const std::vector<CircuitReport>& reps, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "route_perf: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"nemfpga-route-bench-4\",\n");
  std::fprintf(f, "  \"threads\": %zu,\n",
               ThreadPool::current().thread_count());
  std::fprintf(f, "  \"astar_factor\": %.3f,\n", g_route_opt.astar_factor);
  std::fprintf(f, "  \"net_parallel\": %s,\n",
               g_route_opt.net_parallel ? "true" : "false");
  std::fprintf(f, "  \"timing_driven\": %s,\n",
               g_route_opt.timing_driven ? "true" : "false");
  std::fprintf(f, "  \"crit_exp\": %.3f,\n", g_route_opt.criticality_exp);
  // The backend does NOT join the config tuple bench_check pins: both
  // backends are bit-identical by design, and cross-backend diffs are
  // exactly how that claim is audited. Wall-time budgets are still only
  // applied between same-backend runs.
  std::fprintf(f, "  \"rr_backend\": \"%s\",\n",
               g_route_opt.rr_backend == RrBackend::kImplicit ? "implicit"
                                                              : "explicit");
  // Recorded so bench_check can waive the wall-time budget when one run
  // paid for invariant checking and the other did not; the correctness
  // fields and work counters stay pinned either way.
  std::fprintf(f, "  \"invariants_checked\": %s,\n",
               verify::checks_enabled() ? "true" : "false");
  double total = 0.0;
  for (const auto& r : reps) total += r.wmin_wall_s + r.route_wall_s;
  std::fprintf(f, "  \"total_wall_s\": %.6f,\n", total);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fprintf(f, "  \"circuits\": [\n");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    const auto& c = r.fixed.counters;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"luts\": %zu,\n", r.luts);
    std::fprintf(f, "      \"nets\": %zu,\n", r.nets);
    std::fprintf(f, "      \"infeasible\": %s,\n",
                 r.infeasible ? "true" : "false");
    if (r.infeasible) {
      std::fprintf(f, "      \"w_cap\": %zu,\n", r.w_cap);
    }
    std::fprintf(f, "      \"wmin\": %zu,\n", r.w_min);
    std::fprintf(f, "      \"wmin_wall_s\": %.6f,\n", r.wmin_wall_s);
    std::fprintf(f, "      \"fixed_w\": %zu,\n", r.w_fixed);
    std::fprintf(f, "      \"route_wall_s\": %.6f,\n", r.route_wall_s);
    std::fprintf(f, "      \"iterations\": %zu,\n", r.iterations);
    std::fprintf(f, "      \"rr_nodes\": %zu,\n", r.rr_nodes);
    std::fprintf(f, "      \"rr_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.rr_bytes));
    std::fprintf(f, "      \"rr_bytes_per_node\": %.2f,\n",
                 r.rr_nodes ? static_cast<double>(r.rr_bytes) /
                                  static_cast<double>(r.rr_nodes)
                            : 0.0);
    // 0 when congestion-only; hexfloat-precise via %.17g so a diff of
    // two timing runs compares the critical path bitwise.
    std::fprintf(f, "      \"critical_path_s\": %.17g,\n",
                 r.fixed.critical_path_s);
    std::fprintf(f, "      \"tree_checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r.checksum));
    std::fprintf(f, "      \"counters\": {\n");
    std::fprintf(f, "        \"heap_pushes\": %llu,\n",
                 static_cast<unsigned long long>(c.heap_pushes));
    std::fprintf(f, "        \"heap_pops\": %llu,\n",
                 static_cast<unsigned long long>(c.heap_pops));
    std::fprintf(f, "        \"nodes_expanded\": %llu,\n",
                 static_cast<unsigned long long>(c.nodes_expanded));
    std::fprintf(f, "        \"sink_searches\": %llu,\n",
                 static_cast<unsigned long long>(c.sink_searches));
    std::fprintf(f, "        \"nets_routed\": %llu,\n",
                 static_cast<unsigned long long>(c.nets_routed));
    std::fprintf(f, "        \"nets_rerouted\": %llu,\n",
                 static_cast<unsigned long long>(c.nets_rerouted));
    std::fprintf(f, "        \"scratch_grows\": %llu,\n",
                 static_cast<unsigned long long>(c.scratch_grows));
    std::fprintf(f, "        \"lookahead_hits\": %llu,\n",
                 static_cast<unsigned long long>(c.lookahead_hits));
    std::fprintf(f, "        \"batches\": %llu,\n",
                 static_cast<unsigned long long>(c.batches));
    std::fprintf(f, "        \"conflict_replays\": %llu,\n",
                 static_cast<unsigned long long>(c.conflict_replays));
    std::fprintf(f, "        \"sta_net_evals\": %llu,\n",
                 static_cast<unsigned long long>(c.sta_net_evals));
    std::fprintf(f, "        \"sta_block_updates\": %llu,\n",
                 static_cast<unsigned long long>(c.sta_block_updates));
    std::fprintf(f, "        \"t_search_s\": %.6f,\n", c.t_search_s);
    std::fprintf(f, "        \"t_bookkeep_s\": %.6f,\n", c.t_bookkeep_s);
    std::fprintf(f, "        \"t_lookahead_build_s\": %.6f\n",
                 c.t_lookahead_build_s);
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// The --scale ladder: synthetic circuits sized for ~10/16/24-tile logic
/// grids (N = 10 LUTs per block). Deterministic in the spec, so both
/// backends route byte-identical workloads. The top size stays within
/// the lookahead builder's O(tiles^2) budget.
std::vector<SynthSpec> scale_specs() {
  std::vector<SynthSpec> specs(3);
  specs[0].name = "synth-s";
  specs[0].n_luts = 1000;
  specs[1].name = "synth-m";
  specs[1].n_luts = 2560;
  specs[2].name = "synth-l";
  specs[2].n_luts = 5760;
  for (auto& s : specs) {
    s.n_inputs = 48;
    s.n_outputs = 48;
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_route.json";
  std::vector<std::string> circuits = {"tseng", "alu4", "pdc"};
  bool scale = false;
  std::size_t threads = 0;  // 0 = keep the ambient NF_THREADS pool
  const FlagParser fp("route_perf", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out")) {
      out = fp.flag_operand("--out", i);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      circuits = {"tseng"};
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = true;
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = fp.parse_size_flag("--threads", i, 0, kMaxThreads);
    } else if (!std::strcmp(argv[i], "--astar")) {
      const char* tok = fp.flag_operand("--astar", i);
      g_route_opt.astar_factor = fp.double_value("--astar", tok);
      if (g_route_opt.astar_factor <= 0.0) fp.flag_error("--astar", tok);
    } else if (!std::strcmp(argv[i], "--par")) {
      g_route_opt.net_parallel = fp.parse_bool_flag("--par", i);
    } else if (!std::strcmp(argv[i], "--timing")) {
      g_route_opt.timing_driven = true;
    } else if (!std::strcmp(argv[i], "--crit-exp")) {
      g_route_opt.criticality_exp =
          fp.parse_double_flag("--crit-exp", i);
    } else if (!std::strcmp(argv[i], "--backend")) {
      g_route_opt.rr_backend = parse_backend_flag(fp, "--backend", i);
    } else if (!std::strcmp(argv[i], "--max-w")) {
      g_route_opt.max_channel_width =
          fp.parse_size_flag("--max-w", i);
    } else if (!std::strcmp(argv[i], "--verify-la")) {
      // Shadow every directed search with a zero-heuristic Dijkstra on
      // the same cost state: proves admissibility (suboptimal must stay
      // 0 at astar <= 1) and reports the heuristic's pruning ratio.
      g_route_opt.verify_lookahead = true;
    } else if (!std::strcmp(argv[i], "--circuits")) {
      circuits.clear();
      std::string s = fp.flag_operand("--circuits", i);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t c = s.find(',', pos);
        circuits.push_back(s.substr(pos, c - pos));
        pos = c == std::string::npos ? c : c + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: route_perf [--out FILE] [--circuits a,b,c] "
                   "[--smoke] [--scale] [--threads N] [--astar F] "
                   "[--par 0|1] [--timing] [--crit-exp E] "
                   "[--backend explicit|implicit] [--max-w N] "
                   "[--verify-la]\n");
      return 2;
    }
  }

  std::unique_ptr<ThreadPool> own_pool;
  std::unique_ptr<ThreadPool::ScopedUse> own_use;
  if (threads > 0) {
    own_pool = std::make_unique<ThreadPool>(threads);
    own_use = std::make_unique<ThreadPool::ScopedUse>(*own_pool);
  }

  std::printf(
      "route_perf — PathFinder hot-path benchmark (%zu threads, "
      "astar=%.2f, net_parallel=%d, timing=%d, backend=%s)\n\n",
      ThreadPool::current().thread_count(), g_route_opt.astar_factor,
      static_cast<int>(g_route_opt.net_parallel),
      static_cast<int>(g_route_opt.timing_driven),
      g_route_opt.rr_backend == RrBackend::kImplicit ? "implicit"
                                                     : "explicit");
  std::vector<CircuitReport> reps;
  auto report = [&](const CircuitReport& r) {
    if (r.infeasible) {
      std::printf(
          "%-8s %5zu LUTs  infeasible: grow phase hit the W=%zu cap\n",
          r.name.c_str(), r.luts, r.w_cap);
      return;
    }
    const auto& c = r.fixed.counters;
    std::printf(
        "%-8s %5zu LUTs  Wmin=%-3zu (%6.2f s)  route@W=%-3zu %6.2f s  "
        "%zu iters  checksum %016llx\n",
        r.name.c_str(), r.luts, r.w_min, r.wmin_wall_s, r.w_fixed,
        r.route_wall_s, r.iterations,
        static_cast<unsigned long long>(r.checksum));
    std::printf(
        "         rr: %zu nodes, %.2f MiB resident (%.1f B/node)\n",
        r.rr_nodes, static_cast<double>(r.rr_bytes) / (1024.0 * 1024.0),
        r.rr_nodes ? static_cast<double>(r.rr_bytes) /
                         static_cast<double>(r.rr_nodes)
                   : 0.0);
    if (g_route_opt.timing_driven) {
      std::printf(
          "         critical_path=%.3f ns  sta_net_evals=%llu "
          "sta_block_updates=%llu\n",
          r.fixed.critical_path_s * 1e9,
          static_cast<unsigned long long>(c.sta_net_evals),
          static_cast<unsigned long long>(c.sta_block_updates));
    }
    std::printf(
        "         expanded=%llu pushes=%llu lookahead_hits=%llu "
        "batches=%llu replays=%llu la_build=%.3fs\n",
        static_cast<unsigned long long>(c.nodes_expanded),
        static_cast<unsigned long long>(c.heap_pushes),
        static_cast<unsigned long long>(c.lookahead_hits),
        static_cast<unsigned long long>(c.batches),
        static_cast<unsigned long long>(c.conflict_replays),
        c.t_lookahead_build_s);
    if (g_route_opt.verify_lookahead && c.verify_astar_expanded > 0) {
      std::printf(
          "         verify-la: dijkstra=%llu astar=%llu (%.2fx fewer) "
          "suboptimal=%llu\n",
          static_cast<unsigned long long>(c.verify_dijkstra_expanded),
          static_cast<unsigned long long>(c.verify_astar_expanded),
          static_cast<double>(c.verify_dijkstra_expanded) /
              static_cast<double>(c.verify_astar_expanded),
          static_cast<unsigned long long>(c.lookahead_suboptimal));
    }
  };
  if (scale) {
    for (const SynthSpec& spec : scale_specs()) {
      reps.push_back(
          run_circuit(spec.name, generate_netlist(spec), spec.n_luts));
      report(reps.back());
    }
  } else {
    for (const auto& name : circuits) {
      reps.push_back(run_circuit(name, generate_benchmark(name),
                                 benchmark_info(name).luts));
      report(reps.back());
    }
  }
  write_json(reps, out);
  std::printf("\nwrote %s\n", out);
  return 0;
}
