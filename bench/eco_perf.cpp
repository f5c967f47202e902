// ECO-flow performance harness: compiles seed circuits into a live
// EcoFlow session, replays a seeded randomized edit stream (the same
// generator the prop_eco_diff harness shrinks against) and emits
// BENCH_eco.json (p50/p99 apply and reroute latencies, status tallies,
// reroute/invalidation counters, the final tree checksum and critical
// path, and the from-scratch route wall time of the final state) so
// every PR leaves an ECO latency trajectory to regress against
// (tools/bench_check.py diffs two such files, family "eco").
//
//   eco_perf [--out FILE] [--circuits a,b,c] [--smoke] [--scale]
//            [--threads N] [--edits N] [--edit-seed S] [--seed S]
//            [--w N] [--inner-num F]
//
// --smoke runs only the smallest seed circuit with a short stream (the
// CTest target bench_eco_smoke exercises the harness this way). --scale
// replaces the MCNC seed list with route_perf's synthetic ladder
// (synth-s/m/l) — the EXPERIMENTS.md speedup claim (median single-edit
// reroute vs a from-scratch route of the same state) is measured there.
// --edit-seed selects the edit stream; it joins the bench_check
// configuration tuple because a different stream applies different
// edits, so neither the latency percentiles nor the status tallies are
// comparable across it. Wall times, RSS and the latency percentiles
// vary run to run; the status tallies, counters, checksum and critical
// path are bit-deterministic at any thread count (the ECO reroute
// sessions run the deterministic batched scheduler).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "flow/eco.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "route/route.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"

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

/// FNV-1a over the live route trees: the determinism fingerprint two
/// runs (any thread counts) of the same edit stream must share.
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

/// Nearest-rank percentile of an unsorted sample (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

struct CircuitReport {
  std::string name;
  std::size_t luts = 0;
  std::size_t blocks = 0;
  std::size_t nets = 0;
  // Status tallies over the stream (deterministic).
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t unroutable = 0;
  std::size_t full_fallbacks = 0;
  // Work counters summed over the stream (deterministic).
  std::uint64_t nets_invalidated = 0;
  std::uint64_t nets_rerouted = 0;
  std::uint64_t blocks_moved = 0;
  std::uint64_t sta_nets_evaluated = 0;
  std::uint64_t checksum = 0;
  bool final_cycle = false;  ///< Stream left a combinational cycle.
  double critical_path_s = 0.0;  ///< Last timing-valid critical path.
  // Latency distribution over the kOk applies (wall; noisy).
  double base_compile_s = 0.0;
  double apply_p50_s = 0.0;
  double apply_p99_s = 0.0;
  double reroute_p50_s = 0.0;
  double reroute_p99_s = 0.0;
  /// From-scratch route_all of the final session state, and the headline
  /// ratio: scratch wall over the median single-edit reroute wall.
  double scratch_route_s = 0.0;
  double speedup_p50 = 0.0;
  double wall_s = 0.0;  ///< Base compile + stream + scratch reference.
};

/// ECO configuration under test; set once from the command line.
EcoOptions g_opt;
std::size_t g_edits = 50;
std::uint64_t g_edit_seed = 1;

CircuitReport run_circuit(const std::string& name, Netlist nl,
                          std::size_t luts) {
  CircuitReport rep;
  rep.name = name;
  rep.luts = luts;

  const double t_start = now_s();
  EcoFlow flow(std::move(nl), g_opt);
  rep.base_compile_s = now_s() - t_start;
  rep.blocks = flow.placement().locs.size();
  rep.nets = flow.placement().nets.size();
  if (!flow.routed()) {
    std::fprintf(stderr, "eco_perf: %s unroutable at session W=%zu\n",
                 name.c_str(), g_opt.arch.W);
    std::exit(1);
  }

  std::vector<double> apply_s, reroute_s;
  for (std::size_t step = 0; step < g_edits; ++step) {
    Rng erng = Rng::from_stream(g_edit_seed, step);
    const NetlistDelta d = verify::gen_eco_delta(
        erng, flow.netlist(), flow.packing(), flow.arch(), flow.nx(),
        flow.ny(), flow.placement().locs);
    const double t0 = now_s();
    const EcoResult r = flow.apply(d);
    const double dt = now_s() - t0;
    switch (r.status) {
      case EcoStatus::kOk:
        ++rep.ok;
        apply_s.push_back(dt);
        reroute_s.push_back(r.reroute_wall_s);
        break;
      case EcoStatus::kRejected: ++rep.rejected; break;
      case EcoStatus::kUnroutable: ++rep.unroutable; break;
      case EcoStatus::kNoop: break;  // generator never emits empty deltas
    }
    rep.full_fallbacks += r.full_fallback ? 1 : 0;
    rep.nets_invalidated += r.nets_invalidated;
    rep.nets_rerouted += r.nets_rerouted;
    rep.blocks_moved += r.blocks_moved;
    rep.sta_nets_evaluated += r.sta_nets_evaluated;
  }
  if (rep.ok == 0) {
    std::fprintf(stderr,
                 "eco_perf: %s: no edit in the stream applied cleanly; "
                 "latency percentiles are meaningless (try another "
                 "--edit-seed)\n",
                 name.c_str());
  }
  rep.checksum = routing_checksum(flow.routing());
  rep.final_cycle = flow.has_comb_cycle();
  rep.critical_path_s = flow.critical_path_s();
  rep.apply_p50_s = percentile(apply_s, 0.50);
  rep.apply_p99_s = percentile(apply_s, 0.99);
  rep.reroute_p50_s = percentile(reroute_s, 0.50);
  rep.reroute_p99_s = percentile(reroute_s, 0.99);

  // The denominator of the headline claim: a from-scratch route of the
  // exact final state, under the session's own route options.
  const double t1 = now_s();
  const RoutingResult scratch =
      route_all(flow.graph(), flow.placement(), g_opt.route);
  rep.scratch_route_s = now_s() - t1;
  if (!scratch.success) {
    std::fprintf(stderr,
                 "eco_perf: %s: from-scratch reference route failed at "
                 "W=%zu (the session's state is routed; the reference is "
                 "reported as 0)\n",
                 name.c_str(), g_opt.arch.W);
    rep.scratch_route_s = 0.0;
  }
  if (rep.reroute_p50_s > 0.0 && rep.scratch_route_s > 0.0) {
    rep.speedup_p50 = rep.scratch_route_s / rep.reroute_p50_s;
  }
  rep.wall_s = now_s() - t_start;
  return rep;
}

void write_json(const std::vector<CircuitReport>& reps, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "eco_perf: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"nemfpga-eco-bench-1\",\n");
  std::fprintf(f, "  \"threads\": %zu,\n",
               ThreadPool::current().thread_count());
  // The ECO config tuple bench_check pins: the session width, the edit
  // stream (seed + length) and the local-replace seed select which edits
  // run. threads does NOT join it — the replay is a thread-count
  // bit-identity claim, and cross-thread diffs are exactly its audit.
  std::fprintf(f, "  \"w\": %zu,\n", g_opt.arch.W);
  std::fprintf(f, "  \"edits\": %zu,\n", g_edits);
  std::fprintf(f, "  \"edit_seed\": %llu,\n",
               static_cast<unsigned long long>(g_edit_seed));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(g_opt.seed));
  double total = 0.0;
  for (const auto& r : reps) total += r.wall_s;
  std::fprintf(f, "  \"total_wall_s\": %.6f,\n", total);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fprintf(f, "  \"circuits\": [\n");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"luts\": %zu,\n", r.luts);
    std::fprintf(f, "      \"blocks\": %zu,\n", r.blocks);
    std::fprintf(f, "      \"nets\": %zu,\n", r.nets);
    std::fprintf(f, "      \"ok\": %zu,\n", r.ok);
    std::fprintf(f, "      \"rejected\": %zu,\n", r.rejected);
    std::fprintf(f, "      \"unroutable\": %zu,\n", r.unroutable);
    std::fprintf(f, "      \"full_fallbacks\": %zu,\n", r.full_fallbacks);
    std::fprintf(f, "      \"nets_invalidated\": %llu,\n",
                 static_cast<unsigned long long>(r.nets_invalidated));
    std::fprintf(f, "      \"nets_rerouted\": %llu,\n",
                 static_cast<unsigned long long>(r.nets_rerouted));
    std::fprintf(f, "      \"blocks_moved\": %llu,\n",
                 static_cast<unsigned long long>(r.blocks_moved));
    std::fprintf(f, "      \"sta_nets_evaluated\": %llu,\n",
                 static_cast<unsigned long long>(r.sta_nets_evaluated));
    std::fprintf(f, "      \"tree_checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r.checksum));
    std::fprintf(f, "      \"final_cycle\": %s,\n",
                 r.final_cycle ? "true" : "false");
    // %.17g so a diff of two runs compares the path bitwise (the last
    // timing-valid path when the stream left a combinational cycle).
    std::fprintf(f, "      \"critical_path_s\": %.17g,\n",
                 r.critical_path_s);
    std::fprintf(f, "      \"base_compile_s\": %.6f,\n", r.base_compile_s);
    std::fprintf(f, "      \"apply_p50_s\": %.6f,\n", r.apply_p50_s);
    std::fprintf(f, "      \"apply_p99_s\": %.6f,\n", r.apply_p99_s);
    std::fprintf(f, "      \"reroute_p50_s\": %.6f,\n", r.reroute_p50_s);
    std::fprintf(f, "      \"reroute_p99_s\": %.6f,\n", r.reroute_p99_s);
    std::fprintf(f, "      \"scratch_route_s\": %.6f,\n",
                 r.scratch_route_s);
    std::fprintf(f, "      \"speedup_p50\": %.2f\n", r.speedup_p50);
    std::fprintf(f, "    }%s\n", i + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// The --scale ladder: route_perf's deterministic synthetic specs, so
/// the ECO latency ladder and the router memory ladder share workloads.
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
  const char* out = "BENCH_eco.json";
  std::vector<std::string> circuits = {"tseng", "alu4"};
  bool scale = false;
  bool smoke = false;
  bool edits_set = false;
  bool w_set = false;
  std::size_t threads = 0;  // 0 = keep the ambient NF_THREADS pool
  g_opt.arch.W = 64;        // generous session width: edits stay routable
  // The harness's own quick placement effort, well under the flow's
  // default (PlaceOptions{}); kept at 0.3 so its outputs stay comparable.
  g_opt.place.inner_num = 0.3;
  const FlagParser fp("eco_perf", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out")) {
      out = fp.flag_operand("--out", i);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
      circuits = {"tseng"};
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = true;
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = fp.parse_size_flag("--threads", i, 0, kMaxThreads);
    } else if (!std::strcmp(argv[i], "--edits")) {
      g_edits = fp.parse_size_flag("--edits", i);
      edits_set = true;
    } else if (!std::strcmp(argv[i], "--edit-seed")) {
      g_edit_seed = fp.parse_size_flag("--edit-seed", i);
    } else if (!std::strcmp(argv[i], "--seed")) {
      g_opt.seed = fp.parse_size_flag("--seed", i);
      g_opt.place.seed = g_opt.seed;
    } else if (!std::strcmp(argv[i], "--w")) {
      g_opt.arch.W = fp.parse_size_flag("--w", i);
      w_set = true;
    } else if (!std::strcmp(argv[i], "--inner-num")) {
      g_opt.place.inner_num =
          fp.parse_double_flag("--inner-num", i);
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
                   "usage: eco_perf [--out FILE] [--circuits a,b,c] "
                   "[--smoke] [--scale] [--threads N] [--edits N] "
                   "[--edit-seed S] [--seed S] [--w N] [--inner-num F]\n");
      return 2;
    }
  }
  if (smoke && !edits_set) g_edits = 10;
  // synth-l's Wmin is ~87 on this ladder (see route_perf --scale); the
  // MCNC default of 64 would refuse its base compile.
  if (scale && !w_set) g_opt.arch.W = 128;

  std::unique_ptr<ThreadPool> own_pool;
  std::unique_ptr<ThreadPool::ScopedUse> own_use;
  if (threads > 0) {
    own_pool = std::make_unique<ThreadPool>(threads);
    own_use = std::make_unique<ThreadPool::ScopedUse>(*own_pool);
  }

  std::printf(
      "eco_perf — incremental ECO latency benchmark (%zu threads, W=%zu, "
      "%zu edits, edit_seed=%llu)\n\n",
      ThreadPool::current().thread_count(), g_opt.arch.W, g_edits,
      static_cast<unsigned long long>(g_edit_seed));
  std::vector<CircuitReport> reps;
  auto report = [&](const CircuitReport& r) {
    std::printf(
        "%-8s %5zu LUTs %5zu nets  compile %6.2f s  "
        "ok=%zu rejected=%zu unroutable=%zu fallbacks=%zu\n",
        r.name.c_str(), r.luts, r.nets, r.base_compile_s, r.ok, r.rejected,
        r.unroutable, r.full_fallbacks);
    std::printf(
        "         apply p50=%.1f ms p99=%.1f ms  reroute p50=%.1f ms "
        "p99=%.1f ms  scratch=%.1f ms  speedup(p50)=%.1fx\n",
        r.apply_p50_s * 1e3, r.apply_p99_s * 1e3, r.reroute_p50_s * 1e3,
        r.reroute_p99_s * 1e3, r.scratch_route_s * 1e3, r.speedup_p50);
    std::printf(
        "         rerouted=%llu/%llu invalidated  checksum %016llx  "
        "critical_path=%.3f ns\n",
        static_cast<unsigned long long>(r.nets_rerouted),
        static_cast<unsigned long long>(r.nets_invalidated),
        static_cast<unsigned long long>(r.checksum),
        r.critical_path_s * 1e9);
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
