// Placer performance harness: anneals seed circuits and emits
// BENCH_place.json (wall time, move throughput and work counters, final
// costs, a placement checksum and the post-route critical path at a
// fixed channel width) so every PR leaves a placer perf trajectory to
// regress against (tools/bench_check.py diffs two such files).
//
//   place_perf [--out FILE] [--circuits a,b,c] [--smoke] [--scale]
//              [--threads N] [--timing]
//              [--inner-num F] [--seed N] [--w N] [--no-route]
//
// --smoke runs only the smallest seed circuit (CTest target
// bench_place_smoke exercises the harness this way). --scale replaces
// the MCNC seed list with the three synthetic circuits route_perf's
// memory experiment uses — the placer speedup claim of EXPERIMENTS.md is
// measured on synth-l. --threads installs its own pool for the whole
// run (default: the ambient NF_THREADS pool). --w sets the fixed channel
// width of the post-place routing pass whose critical path anchors the
// quality-neutrality claim; --no-route skips that pass for pure placer
// timing. Wall times and peak RSS vary run to run; the cost, checksum,
// counter and critical-path fields are bit-deterministic at any thread
// count.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arch/rr_graph.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "timing/sta.hpp"
#include "timing/variant.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

using namespace nemfpga;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

/// FNV-1a over the block locations: the determinism fingerprint two runs
/// (different thread counts) must share.
std::uint64_t placement_checksum(const Placement& pl) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(pl.nx);
  mix(pl.ny);
  for (const auto& l : pl.locs) {
    mix(l.x);
    mix(l.y);
    mix(l.sub);
  }
  return h;
}

struct CircuitReport {
  std::string name;
  std::size_t luts = 0;
  std::size_t blocks = 0;
  std::size_t nets = 0;
  double place_wall_s = 0.0;
  double final_cost = 0.0;
  double final_weighted_cost = 0.0;
  std::uint64_t checksum = 0;
  PlaceCounters counters;
  /// Post-place quality anchor: route at the fixed width and report the
  /// critical path (0 when --no-route or the width was unroutable).
  std::size_t route_w = 0;
  bool routed = false;
  double critical_path_s = 0.0;
};

/// Placer configuration under test; set once from the command line.
PlaceOptions g_popt;
std::size_t g_route_w = 48;
bool g_do_route = true;

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

  const double t0 = now_s();
  const Placement pl = place(nl, pk, arch, nx, ny, g_popt);
  rep.place_wall_s = now_s() - t0;
  rep.blocks = pl.locs.size();
  rep.nets = pl.nets.size();
  rep.final_cost = pl.final_cost;
  rep.final_weighted_cost = pl.final_weighted_cost;
  rep.checksum = placement_checksum(pl);
  rep.counters = pl.counters;

  if (g_do_route) {
    ArchParams fixed_arch = arch;
    fixed_arch.W = g_route_w;
    rep.route_w = g_route_w;
    const RrGraph g(fixed_arch, nx, ny);
    RouteOptions ropt;
    const RoutingResult r = route_all(g, pl, ropt);
    if (r.success) {
      rep.routed = true;
      const ElectricalView view =
          make_view(fixed_arch, FpgaVariant::kCmosBaseline);
      rep.critical_path_s =
          analyze_timing(nl, pk, pl, g, r, view).critical_path;
    } else {
      std::fprintf(stderr, "place_perf: %s unroutable at W=%zu\n",
                   name.c_str(), g_route_w);
    }
  }
  return rep;
}

void write_json(const std::vector<CircuitReport>& reps, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "place_perf: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"nemfpga-place-bench-1\",\n");
  std::fprintf(f, "  \"threads\": %zu,\n",
               ThreadPool::current().thread_count());
  // The placer config tuple bench_check pins: these knobs change the
  // anneal trajectory (deterministically). threads does NOT join it — it
  // is a bit-identity claim, and cross-thread diffs are exactly how that
  // claim is audited.
  std::fprintf(f, "  \"timing_driven\": %s,\n",
               g_popt.timing_driven ? "true" : "false");
  std::fprintf(f, "  \"inner_num\": %.6f,\n", g_popt.inner_num);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(g_popt.seed));
  double total = 0.0;
  for (const auto& r : reps) total += r.place_wall_s;
  std::fprintf(f, "  \"total_wall_s\": %.6f,\n", total);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fprintf(f, "  \"circuits\": [\n");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    const auto& c = r.counters;
    const double mps =
        r.place_wall_s > 0.0
            ? static_cast<double>(c.proposed) / r.place_wall_s
            : 0.0;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"luts\": %zu,\n", r.luts);
    std::fprintf(f, "      \"blocks\": %zu,\n", r.blocks);
    std::fprintf(f, "      \"nets\": %zu,\n", r.nets);
    std::fprintf(f, "      \"place_wall_s\": %.6f,\n", r.place_wall_s);
    std::fprintf(f, "      \"moves\": %llu,\n",
                 static_cast<unsigned long long>(c.proposed));
    std::fprintf(f, "      \"moves_per_s\": %.1f,\n", mps);
    std::fprintf(f, "      \"accepted\": %llu,\n",
                 static_cast<unsigned long long>(c.accepted));
    std::fprintf(f, "      \"rescans\": %llu,\n",
                 static_cast<unsigned long long>(c.rescans));
    // %.17g so a diff of two runs compares the costs bitwise.
    std::fprintf(f, "      \"final_cost\": %.17g,\n", r.final_cost);
    std::fprintf(f, "      \"final_weighted_cost\": %.17g,\n",
                 r.final_weighted_cost);
    std::fprintf(f, "      \"cost_checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r.checksum));
    std::fprintf(f, "      \"route_w\": %zu,\n", r.route_w);
    std::fprintf(f, "      \"routed\": %s,\n", r.routed ? "true" : "false");
    std::fprintf(f, "      \"critical_path_s\": %.17g\n",
                 r.critical_path_s);
    std::fprintf(f, "    }%s\n", i + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// The --scale ladder: the same deterministic synthetic specs
/// route_perf's memory experiment uses, so the two harnesses exercise
/// byte-identical workloads.
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
  const char* out = "BENCH_place.json";
  std::vector<std::string> circuits = {"tseng", "alu4", "pdc"};
  bool scale = false;
  std::size_t threads = 0;  // 0 = keep the ambient NF_THREADS pool
  // The harness's own quick effort, well under the flow's default
  // (PlaceOptions{}); kept at 0.3 so its outputs stay comparable.
  g_popt.inner_num = 0.3;
  const FlagParser fp("place_perf", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out")) {
      out = fp.flag_operand("--out", i);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      circuits = {"tseng"};
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = true;
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = fp.parse_size_flag("--threads", i, 0, kMaxThreads);
    } else if (!std::strcmp(argv[i], "--timing")) {
      g_popt.timing_driven = true;
    } else if (!std::strcmp(argv[i], "--inner-num")) {
      g_popt.inner_num = fp.parse_double_flag("--inner-num", i);
    } else if (!std::strcmp(argv[i], "--seed")) {
      g_popt.seed = fp.parse_size_flag("--seed", i);
    } else if (!std::strcmp(argv[i], "--w")) {
      g_route_w = fp.parse_size_flag("--w", i);
    } else if (!std::strcmp(argv[i], "--no-route")) {
      g_do_route = false;
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
                   "usage: place_perf [--out FILE] [--circuits a,b,c] "
                   "[--smoke] [--scale] [--threads N] [--timing] "
                   "[--inner-num F] [--seed N] [--w N] [--no-route]\n");
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
      "place_perf — annealer hot-path benchmark (%zu threads, "
      "timing=%d, inner_num=%.2f)\n\n",
      ThreadPool::current().thread_count(),
      static_cast<int>(g_popt.timing_driven), g_popt.inner_num);
  std::vector<CircuitReport> reps;
  auto report = [&](const CircuitReport& r) {
    const auto& c = r.counters;
    std::printf(
        "%-8s %5zu LUTs %5zu blocks  place %7.2f s  %8.0f moves/s  "
        "cost=%.1f  checksum %016llx\n",
        r.name.c_str(), r.luts, r.blocks, r.place_wall_s,
        r.place_wall_s > 0.0
            ? static_cast<double>(c.proposed) / r.place_wall_s
            : 0.0,
        r.final_cost, static_cast<unsigned long long>(r.checksum));
    std::printf("         accepted=%llu rescans=%llu\n",
                static_cast<unsigned long long>(c.accepted),
                static_cast<unsigned long long>(c.rescans));
    if (r.routed) {
      std::printf("         route@W=%zu critical_path=%.3f ns\n", r.route_w,
                  r.critical_path_s * 1e9);
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
