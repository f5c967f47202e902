// The four workloads. Each makes its inputs from the workload seed, sets
// up several times (setup_s is the median), measures a work list sized from
// the requested seconds (flow-suite and wmin-table1: whole passes while
// another fits, at least one), and checks every output. NOTES.md records
// why each workload exists and which layer it stresses.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/flow.hpp"
#include "core/study.hpp"
#include "flow/eco.hpp"
#include "netlist/mcnc.hpp"
#include "service/flow_artifacts.hpp"
#include "service/json_io.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "verify/generators.hpp"

namespace nfbench {

using namespace nemfpga;

namespace {

/// Set-up repetitions: eleven where set-up only generates netlists, three
/// where it compiles designs (ECO sessions, serve reference flows).
constexpr int kSetupReps = 11;
/// Netlist-only set-up generates the Table 1 subset this many times per
/// repetition (keeping the last), spread over the pool: one generation
/// takes about 20 ms, too short to time steadily on a shared host, and on
/// one thread the figure depends on which vCPU the process landed on
/// (0.12 or 0.18 s for ten generations, see NOTES.md).
constexpr std::size_t kGensPerSetup = 20;
constexpr int kCompileSetupReps = 3;
/// The Table 1 subset: two small, two mid-size and the two largest
/// circuits the paper routes at W = 118.
const std::vector<std::string> kTable1 = {"tseng", "ex5p", "alu4",
                                          "seq",   "frisc", "pdc"};

/// Seed stream ids, so each workload's inputs are independent draws.
enum Stream : std::uint64_t {
  kStreamPlace,
  kStreamServeMix,
  kStreamServeArrivals,
  kStreamEco
};

std::vector<std::uint64_t> draw_seeds(std::uint64_t seed, Stream s,
                                      std::size_t n) {
  Rng rng = Rng::from_stream(seed, s);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(1 + rng.uniform_int(1u << 30));
  }
  return out;
}

/// Whether to measure another pass: always the first, then only while
/// one more pass of the last pass's length fits in `seconds`.
bool another_pass(const std::vector<double>& pass_walls, double seconds) {
  double sum = 0.0;
  for (double w : pass_walls) sum += w;
  return pass_walls.empty() || sum + pass_walls.back() <= seconds;
}

template <typename F>
void timed_setup(Report& r, int reps, F&& setup) {
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    r.setup_s.push_back(now_s() - t0);
  }
}

std::vector<Netlist> gen_table1(Tracer& t) {
  auto s = t.span("netlist.gen");
  // The pool's generations are dropped as they are made and the kept one
  // is made on this thread, so set-up leaves no netlist in another
  // thread's heap to raise the peak memory the run reports.
  parallel_for((kGensPerSetup - 1) * kTable1.size(), [](std::size_t i) {
    generate_benchmark(kTable1[i % kTable1.size()]);
  });
  std::vector<Netlist> out;
  for (const std::string& name : kTable1) {
    out.push_back(generate_benchmark(name));
  }
  return out;
}

double geomean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : geometric_mean(v);
}

bool legal(const RrGraphView& g, const Placement& pl, const RoutingResult& rr,
           std::string& why) {
  if (!rr.success) {
    why = "routing failed";
    return false;
  }
  try {
    check_routing(g, pl, rr);
  } catch (const std::logic_error& e) {
    why = e.what();
    return false;
  }
  return true;
}

/// Span name -> per-layer self-time metric. netlist.gen is divided by the
/// set-up repetitions, so it reads as one set-up's generation time.
void add_span_times(const Tracer& t, Report& r) {
  static const std::vector<std::pair<const char*, const char*>> kMap = {
      {"netlist.gen", "netlist.gen_s"},
      {"pack", "pack.self_s"},
      {"place", "place.self_s"},
      {"arch.rr_build", "arch.rr_build_s"},
      {"arch.lookahead", "arch.lookahead_s"},
      {"route", "route.self_s"},
      {"route.wmin", "route.wmin_s"},
      {"route.probe_ok", "route.probe_ok_s"},
      {"route.probe_fail", "route.probe_fail_s"},
      {"core.evaluate", "core.evaluate_s"},
      {"flow.apply", "flow.apply_s"}};
  const auto self = t.self_seconds();
  for (const auto& [span, metric] : kMap) {
    const auto it = self.find(span);
    if (it != self.end()) r.layer[metric] = it->second;
  }
  const auto gen = r.layer.find("netlist.gen_s");
  if (gen != r.layer.end()) {
    gen->second /= static_cast<double>(r.setup_s.size());
  }
}

/// Span coverage of the traced work (`covered_wall` long, started after
/// `since`), and tracing overhead: `traced` against `untraced`, the walls
/// of the same work run with and without spans.
void add_trace_figures(const Tracer& t, Report& r, double since,
                       double covered_wall, double traced, double untraced) {
  r.layer["bench.trace_overhead_pct"] = (traced - untraced) / untraced * 100.0;
  r.layer["bench.span_coverage_pct"] =
      t.top_level_seconds(since) / covered_wall * 100.0;
}

void add_route_counters(Report& r, const RouteCounters& k,
                        std::size_t iterations) {
  r.layer["route.iterations"] += static_cast<double>(iterations);
  r.layer["route.heap_pops"] += static_cast<double>(k.heap_pops);
  r.layer["route.nodes_expanded"] += static_cast<double>(k.nodes_expanded);
  r.layer["route.nets_rerouted"] += static_cast<double>(k.nets_rerouted);
}

void add_place_counters(Report& r, const Placement& pl) {
  r.layer["place.proposed"] += static_cast<double>(pl.counters.proposed);
  r.layer["place.accepted"] += static_cast<double>(pl.counters.accepted);
}

void finish_ratios(Report& r) {
  auto ratio = [&](const char* out, const char* num, const char* den) {
    const auto n = r.layer.find(num), d = r.layer.find(den);
    if (n != r.layer.end() && d != r.layer.end() && d->second > 0.0) {
      r.layer[out] = n->second / d->second;
    }
  };
  ratio("place.accept_ratio", "place.accepted", "place.proposed");
  ratio("route.useful_ratio", "route.nodes_expanded", "route.heap_pops");
  ratio("flow.churn_ratio", "flow.nets_rerouted", "flow.nets_invalidated");
}

/// run_flow composed stage by stage under spans (congestion-only flows,
/// no artifact cache): pack, place, RR graph, lookahead, route.
FlowResult traced_flow(Netlist nl, const FlowOptions& opt, Tracer& t) {
  FlowResult f;
  f.arch = opt.arch;
  f.netlist = std::move(nl);
  {
    auto s = t.span("pack");
    f.packing = pack_netlist(f.netlist, f.arch);
  }
  const auto [nx, ny] = grid_size_for(f.arch, f.packing.clusters.size(),
                                      f.packing.io_block_count());
  {
    auto s = t.span("place");
    f.placement = place(f.netlist, f.packing, f.arch, nx, ny, opt.place);
  }
  {
    auto s = t.span("arch.rr_build");
    if (opt.route.rr_backend == RrBackend::kImplicit) {
      f.igraph = std::make_shared<const ImplicitRrGraph>(f.arch, nx, ny);
    } else {
      f.graph = std::make_shared<const RrGraph>(f.arch, nx, ny);
    }
  }
  RouteOptions ropt = opt.route;
  {
    auto s = t.span("arch.lookahead");
    ropt.lookahead = std::make_shared<const RouteLookahead>(f.graph_view());
  }
  auto s = t.span("route");
  f.routing = route_all(f.graph_view(), f.placement, ropt);
  return f;
}

}  // namespace

// ---- flow-suite ----------------------------------------------------------

void run_flow_suite(const Config& c, Tracer& t, Report& r) {
  std::vector<Netlist> nets;
  timed_setup(r, kSetupReps, [&] { nets = gen_table1(t); });
  const std::vector<std::uint64_t> seeds = draw_seeds(c.seed, kStreamPlace, 2);
  r.unit = "flow jobs";

  // One job: a cold run_flow at W = 118 and both backend evaluations. On a
  // traced run the first pass follows each job with its traced twin, so
  // that machine drift cancels out of the overhead figure.
  std::vector<double> bb, cp, speedup, pass_walls;
  double untraced = 0.0, traced = 0.0;
  const double since = now_s();
  while (another_pass(pass_walls, c.seconds)) {
    const bool first = pass_walls.empty();
    double pass = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      for (const std::uint64_t seed : seeds) {
        FlowOptions opt;
        opt.place.seed = seed;
        Netlist nl = nets[i];
        ++r.attempted;
        const double t0 = now_s();
        FlowResult f;
        try {
          f = run_flow(std::move(nl), opt);
        } catch (const std::runtime_error&) {
          ++r.failed;  // unroutable at W = 118
          continue;
        }
        const VariantMetrics cmos = evaluate_backend(f, "cmos");
        const VariantMetrics nem = evaluate_backend(f, "nem-opt");
        const double dt = now_s() - t0;
        pass += dt;
        r.latency_s.push_back(dt);
        std::printf("%-6s placement seed %-10llu %8.1f ms, %zu route "
                    "iterations\n",
                    kTable1[i].c_str(), static_cast<unsigned long long>(seed),
                    dt * 1e3, f.routing.iterations);

        std::string why;
        if (!legal(f.graph_view(), f.placement, f.routing, why)) {
          r.fail(kTable1[i] + ": illegal routing: " + why);
          return;
        }
        if (!(cmos.critical_path > 0.0 && nem.critical_path > 0.0)) {
          r.fail(kTable1[i] + ": non-positive critical path");
          return;
        }
        if (!first) continue;
        bb.push_back(f.placement.final_cost);
        cp.push_back(cmos.critical_path * 1e9);
        speedup.push_back(cmos.critical_path / nem.critical_path);
        if (!t.on()) continue;

        untraced += dt;
        nl = nets[i];
        const double t1 = now_s();
        const FlowResult tf = traced_flow(std::move(nl), opt, t);
        {
          auto s = t.span("core.evaluate");
          evaluate_backend(tf, "cmos");
          evaluate_backend(tf, "nem-opt");
        }
        traced += now_s() - t1;
        std::uint64_t want = routing_tree_checksum(f.routing);
        if (c.inject == "checksum") want ^= 1;
        if (routing_tree_checksum(tf.routing) != want) {
          r.fail(kTable1[i] + ": traced composition checksum differs from "
                 "run_flow");
          return;
        }
        r.layer["pack.clusters"] +=
            static_cast<double>(tf.packing.clusters.size());
        add_place_counters(r, tf.placement);
        const RrGraphView g = tf.graph_view();
        r.layer["arch.rr_nodes"] += static_cast<double>(g.node_count());
        r.layer["arch.rr_mb"] =
            std::max(r.layer["arch.rr_mb"],
                     static_cast<double>(g.memory_bytes()) / 1e6);
        add_route_counters(r, tf.routing.counters, tf.routing.iterations);
      }
    }
    pass_walls.push_back(pass);
  }
  r.wall_s = percentile(pass_walls, 50.0);
  std::printf("flow-suite: %zu jobs/pass, placement seeds %llu %llu\n",
              nets.size() * seeds.size(),
              static_cast<unsigned long long>(seeds[0]),
              static_cast<unsigned long long>(seeds[1]));
  std::printf("QoR: bb_cost %.3f critical_path %.4f ns nem_speedup %.4f\n",
              geomean(bb), geomean(cp), geomean(speedup));
  if (!t.on() || r.failed > 0) return;

  r.layer["qor.bb_cost"] = geomean(bb);
  r.layer["qor.critical_path_ns"] = geomean(cp);
  r.layer["qor.nem_speedup"] = geomean(speedup);
  add_span_times(t, r);
  add_trace_figures(t, r, since, traced, traced, untraced);
  finish_ratios(r);
}

// ---- wmin-table1 ---------------------------------------------------------

namespace {

/// route_all at one width with find_min_channel_width's probe options.
RoutingResult route_at(std::size_t w, const ArchParams& arch,
                       const Placement& pl, const RouteOptions& probe,
                       Tracer& t, const char* span) {
  ArchParams a = arch;
  a.W = w;
  std::unique_ptr<RrGraph> eg;
  std::unique_ptr<ImplicitRrGraph> ig;
  {
    auto s = t.span("arch.rr_build");
    if (probe.rr_backend == RrBackend::kImplicit) {
      ig = std::make_unique<ImplicitRrGraph>(a, pl.nx, pl.ny);
    } else {
      eg = std::make_unique<RrGraph>(a, pl.nx, pl.ny);
    }
  }
  const RrGraphView g = ig ? RrGraphView(*ig) : RrGraphView(*eg);
  auto s = t.span(span);
  RoutingResult rr = route_all(g, pl, probe);
  std::string why;
  if (rr.success && !legal(g, pl, rr, why)) {
    throw std::runtime_error("illegal routing at W=" + std::to_string(w) +
                             ": " + why);
  }
  return rr;
}

/// The Wmin gate of one circuit, which on a traced run is also its traced
/// composition: pack and place as the search does (and, traced, repeat the
/// search under a span; it must land on the same Wmin), then Wmin must
/// route legally and Wmin - 1 must not. `search_s` gets the wall of the
/// steps that mirror flow_min_channel_width.
bool wmin_gate(const std::string& name, const Netlist& nl,
               const FlowOptions& opt, std::size_t wmin, Tracer& t,
               Report& r, std::vector<double>& bb, double& search_s) {
  const double t0 = now_s();
  Packing pk;
  Placement pl;
  {
    auto s = t.span("pack");
    pk = pack_netlist(nl, opt.arch);
  }
  const auto [nx, ny] =
      grid_size_for(opt.arch, pk.clusters.size(), pk.io_block_count());
  {
    auto s = t.span("place");
    pl = place(nl, pk, opt.arch, nx, ny, opt.place);
  }
  if (t.on()) {
    auto s = t.span("route.wmin");
    if (find_min_channel_width(opt.arch, pl, 64, opt.route).w_min != wmin) {
      return r.fail(name + ": traced Wmin search disagrees");
    }
  }
  search_s = now_s() - t0;
  RouteOptions probe = opt.route;
  probe.net_parallel = false;  // the search's probe discipline
  {
    auto s = t.span("arch.lookahead");
    ArchParams a = opt.arch;
    a.W = wmin;
    const ImplicitRrGraph g(a, pl.nx, pl.ny);
    probe.lookahead = std::make_shared<const RouteLookahead>(g);
  }
  const RoutingResult ok =
      route_at(wmin, opt.arch, pl, probe, t, "route.probe_ok");
  if (!ok.success) return r.fail(name + ": does not route at Wmin");
  const RoutingResult bad =
      route_at(wmin - 1, opt.arch, pl, probe, t, "route.probe_fail");
  if (bad.success) return r.fail(name + ": routes at Wmin - 1");

  bb.push_back(pl.final_cost);
  if (t.on()) {
    r.layer["pack.clusters"] += static_cast<double>(pk.clusters.size());
    add_place_counters(r, pl);
    r.layer["route.probe_ok_heap_pops"] +=
        static_cast<double>(ok.counters.heap_pops);
    r.layer["route.probe_fail_heap_pops"] +=
        static_cast<double>(bad.counters.heap_pops);
    r.layer["route.probe_fail_iterations"] +=
        static_cast<double>(bad.iterations);
  }
  return true;
}

}  // namespace

void run_wmin_table1(const Config& c, Tracer& t, Report& r) {
  std::vector<Netlist> nets;
  timed_setup(r, kSetupReps, [&] { nets = gen_table1(t); });
  // The canonical Table 1 placements (the flow's default placement seed,
  // as bench/table1_channel_width runs them), whatever the workload seed:
  // one placement per circuit decides the search wall, and between
  // placement seeds it moved by a quarter (NOTES.md), more than any bound
  // could absorb.
  const FlowOptions opt;
  r.unit = "Wmin searches";

  // Each circuit's search is followed by its gate, so that on a traced
  // run the traced twin runs right after the measured search.
  std::vector<double> bb, pass_walls;
  double tracks = 0.0, untraced = 0.0, traced = 0.0, gates = 0.0;
  const double since = now_s();
  while (another_pass(pass_walls, c.seconds)) {
    const bool first = pass_walls.empty();
    double pass = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      Netlist nl = nets[i];
      ++r.attempted;
      const double t0 = now_s();
      const ChannelWidthResult w = flow_min_channel_width(std::move(nl), opt);
      const double dt = now_s() - t0;
      pass += dt;
      r.latency_s.push_back(dt);
      if (!w.feasible || w.w_min < 2) {
        ++r.failed;
        continue;
      }
      if (!first) continue;
      std::printf("%-6s Wmin %zu, search %.1f ms\n", kTable1[i].c_str(),
                  w.w_min, dt * 1e3);
      double search_s = 0.0;
      const double t1 = now_s();
      if (!wmin_gate(kTable1[i], nets[i], opt, w.w_min, t, r, bb, search_s)) {
        return;
      }
      gates += now_s() - t1;
      tracks += static_cast<double>(w.w_min);
      untraced += dt;
      traced += search_s;
    }
    pass_walls.push_back(pass);
  }
  r.wall_s = percentile(pass_walls, 50.0);
  std::printf("QoR: sum Wmin %.0f bb_cost %.3f\n", tracks, geomean(bb));
  if (!t.on() || r.failed > 0) return;

  r.layer["qor.wmin_tracks"] = tracks;
  r.layer["qor.bb_cost"] = geomean(bb);
  add_span_times(t, r);
  // Overhead compares like with like: the traced pack + place + search
  // against the untraced flow_min_channel_width calls.
  add_trace_figures(t, r, since, gates, traced, untraced);
  finish_ratios(r);
}

// ---- eco-sessions --------------------------------------------------------

namespace {

/// Eight sessions, four per circuit, of 250 edits each: the cost of a
/// replay depends on its stream (one 1,000-edit alu4 stream took 4.4 to
/// 6.9 s over four seeds, and four 500-edit streams still spread 0.2 over
/// ten seeds), so more, shorter streams steady the total.
constexpr std::size_t kEcoEdits = 250;
const std::vector<std::string> kEcoCircuits = {
    "tseng", "alu4", "tseng", "alu4", "tseng", "alu4", "tseng", "alu4"};
/// A run replays one round of fresh streams per this many requested
/// seconds (one round took 3.0 to 4.9 s on a shared 4-vCPU VM), so the
/// work list depends on --seed and --seconds only, not on the host's
/// speed.
constexpr double kEcoRoundSeconds = 5.0;
using Sessions = std::vector<std::unique_ptr<EcoFlow>>;

struct EcoTally {
  std::size_t ok = 0, rejected = 0, unroutable = 0, fallbacks = 0;
  std::uint64_t invalidated = 0, rerouted = 0, sta_nets = 0, iterations = 0;
  std::uint64_t clusters = 0, rr_nodes = 0;  ///< Summed at session ends.
  double rr_mb = 0.0;                         ///< Largest session graph.
  std::vector<double> cp, bb;
  double wall = 0.0;         ///< Generating and applying, untraced.
  double traced_wall = 0.0;  ///< Generating and applying on the twins.
};

/// One session per kEcoCircuits entry, placed with place_seeds[k].
Sessions open_sessions(EcoOptions opt,
                       const std::vector<std::uint64_t>& place_seeds,
                       Tracer& t) {
  Sessions out;
  for (std::size_t k = 0; k < kEcoCircuits.size(); ++k) {
    Netlist nl;
    {
      auto s = t.span("netlist.gen");
      nl = generate_benchmark(kEcoCircuits[k]);
    }
    opt.place.seed = place_seeds[k];
    out.push_back(std::make_unique<EcoFlow>(std::move(nl), opt));
  }
  return out;
}

/// Replay each session's seeded edit stream. Latencies of applied edits go
/// to `lat`. With `twins` (a traced run), every delta is applied next to
/// the untraced apply on an identical twin session under a span, and the
/// twin must land on the same status and, at the end, the same routing.
bool replay(Sessions& sessions, Sessions* twins, const EcoOptions& opt,
            std::uint64_t edit_seed, const Config& c, Tracer& t, Report& r,
            std::vector<double>& lat, EcoTally& tally) {
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    EcoFlow& flow = *sessions[k];
    const std::string& name = kEcoCircuits[k];
    if (!flow.routed()) return r.fail(name + ": base design unroutable");
    const double session_start = tally.wall;
    for (std::size_t step = 0; step < kEcoEdits; ++step) {
      const double t0 = now_s();
      NetlistDelta d;
      {
        auto s = t.span("eco.gen");
        Rng erng = Rng::from_stream(edit_seed + k, step);
        d = verify::gen_eco_delta(erng, flow.netlist(), flow.packing(),
                                  flow.arch(), flow.nx(), flow.ny(),
                                  flow.placement().locs);
      }
      const double t1 = now_s();
      const EcoResult e = flow.apply(d);
      const double t2 = now_s();
      tally.wall += t2 - t0;
      if (twins != nullptr) {
        const double t3 = now_s();
        EcoResult te;
        {
          auto s = t.span("flow.apply");
          te = (*twins)[k]->apply(d);
        }
        tally.traced_wall += (t1 - t0) + (now_s() - t3);
        if (te.status != e.status) {
          return r.fail(name + ": traced twin diverged at edit " +
                        std::to_string(step));
        }
      }
      tally.fallbacks += e.full_fallback ? 1 : 0;
      tally.invalidated += e.nets_invalidated;
      tally.rerouted += e.nets_rerouted;
      tally.sta_nets += e.sta_nets_evaluated;
      tally.iterations += e.route_iterations;
      if (e.status == EcoStatus::kRejected) {
        ++tally.rejected;
        continue;
      }
      if (e.status == EcoStatus::kUnroutable) {
        ++tally.unroutable;
        continue;
      }
      ++tally.ok;
      lat.push_back(t2 - t1);
      std::string why;
      if (!e.legal ||
          !legal(flow.graph(), flow.placement(), flow.routing(), why)) {
        return r.fail(name + ": edit " + std::to_string(step) +
                      " left illegal routing " + why);
      }
    }
    // The final netlist must also route from scratch on the session's
    // placement.
    std::string why;
    const RoutingResult scratch =
        route_all(flow.graph(), flow.placement(), opt.route);
    if (!legal(flow.graph(), flow.placement(), scratch, why)) {
      return r.fail(name + ": final netlist does not route from scratch: " +
                    why);
    }
    if (twins != nullptr) {
      std::uint64_t want = routing_tree_checksum(flow.routing());
      if (c.inject == "checksum") want ^= 1;
      if (routing_tree_checksum((*twins)[k]->routing()) != want) {
        return r.fail(name + ": traced twin's routing differs");
      }
    }
    tally.cp.push_back(flow.critical_path_s() * 1e9);
    tally.bb.push_back(placement_cost(flow.placement()));
    tally.clusters += flow.packing().clusters.size();
    const RrGraphView g = flow.graph();
    tally.rr_nodes += g.node_count();
    tally.rr_mb = std::max(tally.rr_mb, static_cast<double>(g.memory_bytes()) / 1e6);
    std::printf("%-6s %zu edits in %.3f s\n", name.c_str(), kEcoEdits,
                tally.wall - session_start);
  }
  return true;
}

}  // namespace

void run_eco_sessions(const Config& c, Tracer& t, Report& r) {
  const std::vector<std::uint64_t> place_seeds =
      draw_seeds(c.seed, kStreamEco, kEcoCircuits.size() + 2);
  EcoOptions opt;
  opt.arch.W = 118;
  opt.seed = place_seeds[kEcoCircuits.size()];
  const std::uint64_t edit_seed = place_seeds[kEcoCircuits.size() + 1];
  r.unit = "applied edits";

  Sessions sessions;
  timed_setup(r, kCompileSetupReps,
              [&] { sessions = open_sessions(opt, place_seeds, t); });
  // Spans off: opening more sessions is neither set-up nor measured, and
  // rounds after the first are not traced.
  Tracer quiet(false);
  Sessions twins;
  if (t.on()) twins = open_sessions(opt, place_seeds, quiet);

  // Each round replays its own streams (edit seeds offset by the round)
  // on freshly opened sessions; wall_s is the sum over the rounds.
  const std::size_t rounds =
      std::max<std::size_t>(1, static_cast<std::size_t>(c.seconds /
                                                        kEcoRoundSeconds));
  EcoTally first;
  const double since = now_s();
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0) sessions = open_sessions(opt, place_seeds, quiet);
    EcoTally tally;
    const bool traced = round == 0 && t.on();
    if (!replay(sessions, traced ? &twins : nullptr, opt,
                edit_seed + round * kEcoCircuits.size(), c,
                traced ? t : quiet, r, r.latency_s, tally)) {
      return;
    }
    r.attempted += kEcoEdits * kEcoCircuits.size();
    r.failed += tally.unroutable;
    r.wall_s += tally.wall;
    if (round == 0) first = tally;
  }
  std::printf("eco-sessions: %zu rounds; first round, %zu edits/session: "
              "ok %zu rejected %zu unroutable %zu fallbacks %zu\n",
              rounds, kEcoEdits, first.ok, first.rejected, first.unroutable,
              first.fallbacks);
  std::printf("QoR: critical_path %.4f ns bb_cost %.3f\n", geomean(first.cp),
              geomean(first.bb));
  if (!t.on()) return;

  r.layer["flow.edits_ok"] = static_cast<double>(first.ok);
  r.layer["flow.edits_rejected"] = static_cast<double>(first.rejected);
  r.layer["flow.edits_unroutable"] = static_cast<double>(first.unroutable);
  r.layer["flow.fallbacks"] = static_cast<double>(first.fallbacks);
  r.layer["flow.nets_invalidated"] = static_cast<double>(first.invalidated);
  r.layer["flow.nets_rerouted"] = static_cast<double>(first.rerouted);
  r.layer["timing.sta_nets_evaluated"] = static_cast<double>(first.sta_nets);
  r.layer["route.iterations"] = static_cast<double>(first.iterations);
  r.layer["pack.clusters"] = static_cast<double>(first.clusters);
  r.layer["arch.rr_nodes"] = static_cast<double>(first.rr_nodes);
  r.layer["arch.rr_mb"] = first.rr_mb;
  r.layer["qor.critical_path_ns"] = geomean(first.cp);
  r.layer["qor.bb_cost"] = geomean(first.bb);
  add_span_times(t, r);
  add_trace_figures(t, r, since, first.traced_wall, first.traced_wall,
                    first.wall);
  finish_ratios(r);
}

// ---- serve-open ----------------------------------------------------------

namespace {

/// Daemon workers and open-loop connections. Two, not one per vCPU:
/// with four workers the daemon's jobs competed with the client and the
/// rest of a shared 4-vCPU host, and a burst's drain time spread 0.26 to
/// 0.30 over ten seeds.
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeConnections = 2;
/// Open-loop arrival rate [jobs/s]: about half of the daemon's saturated
/// throughput on this mix at two workers (NOTES.md).
constexpr double kServeRate = 3.75;
/// Jobs of each kind in the closed loop after the open loop: 48 jobs,
/// about 12 s. One job at a time: two workers draining a burst still
/// spread 0.19 over ten seeds, with the open loop's latency at 0.05.
constexpr std::size_t kClosedPerKind = 6;

struct Fabric {
  std::size_t w;
  const char* sb;
};
const Fabric kFabrics[] = {{118, "wilton"}, {96, "subset"}, {80, "universal"}};

/// One distinct job of the mix: circuit kind, fabric and flow mode.
struct ServeSpec {
  bool synth = false;
  std::size_t luts = 0;
  std::size_t fabric = 0;
  bool timing = false;  ///< nem-opt timing-driven, else cmos congestion-only.
  std::uint64_t seed = 1;
};

std::string request_line(const ServeSpec& s, std::size_t id) {
  JsonWriter w;
  w.field("op", "flow").field("id", static_cast<double>(id));
  if (s.synth) {
    w.field("synth_luts", static_cast<double>(s.luts));
  } else {
    w.field("benchmark", "tseng");
  }
  w.field("w", static_cast<double>(kFabrics[s.fabric].w))
      .field("sb_pattern", kFabrics[s.fabric].sb)
      .field("seed", static_cast<double>(s.seed))
      .field("timing", s.timing)
      .field("variant", s.timing ? "nem-opt" : "cmos");
  return w.str();
}

/// serve_mix's first kinds are tseng jobs, the rest synthetic ones.
constexpr std::size_t kTsengKinds = 4;

std::vector<ServeSpec> serve_mix(std::uint64_t seed) {
  Rng rng = Rng::from_stream(seed, kStreamServeMix);
  // (synth, fabric, timing): four tseng and four synthetic jobs, each kind
  // on every fabric and in both modes. Four tseng placements, so that no
  // single placement's service time sets the mix's mean.
  const int table[8][3] = {{0, 0, 0}, {0, 1, 1}, {0, 2, 0}, {0, 0, 1},
                           {1, 0, 1}, {1, 2, 0}, {1, 1, 0}, {1, 2, 1}};
  std::vector<ServeSpec> out;
  for (const auto& row : table) {
    ServeSpec s;
    s.synth = row[0] != 0;
    s.luts = s.synth ? 250 + rng.uniform_int(100) : 0;
    s.fabric = static_cast<std::size_t>(row[1]);
    s.timing = row[2] != 0;
    s.seed = 1 + rng.uniform_int(1u << 30);
    out.push_back(s);
  }
  return out;
}

/// The fields a serve response must reproduce from a solo run_flow, and
/// the solo run's work counters, which a matching job repeats.
struct Expected {
  std::string checksum;
  double w = 0, iterations = 0, placement_cost = 0, critical_path_s = 0;
  std::map<std::string, double> work;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool matches(const std::string& line, const Expected& e, std::string& why) {
  const JsonObject o = parse_json_object(line);
  if (!o.get_bool("ok")) {
    why = "job failed: " + o.get_string("error");
    return false;
  }
  if (o.get_string("tree_checksum") != e.checksum ||
      o.get_number("w") != e.w || o.get_number("iterations") != e.iterations ||
      o.get_number("placement_cost") != e.placement_cost ||
      o.get_number("critical_path_s") != e.critical_path_s) {
    why = "response differs from solo run_flow: " + line;
    return false;
  }
  return true;
}

/// A blocking loopback connection to the server, split into lines.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&a), sizeof a) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("serve-open: cannot connect");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::string line) {
    line += '\n';
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, 0);
      if (n <= 0) throw std::runtime_error("serve-open: send failed");
      off += static_cast<std::size_t>(n);
    }
  }
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("serve-open: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// A server with its accept loop on a thread; stops and joins on scope
/// exit (every Client must be closed first).
class LiveServer {
 public:
  explicit LiveServer(const ServeOptions& o)
      : srv_(o), th_([this] { srv_.run(); }) {}
  ~LiveServer() {
    srv_.shutdown();
    th_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  ServeServer& server() { return srv_; }

 private:
  ServeServer srv_;
  std::thread th_;
};

/// A job list driven over the connections: request i goes out on
/// connection i % conns at due[i] (one sender thread per connection sleeps
/// until then) and its response is stamped on arrival (one reader thread
/// per connection; the server answers in request order).
struct Drive {
  std::vector<double> sent, got;
  std::vector<std::string> resp;
};

Drive drive(std::vector<std::unique_ptr<Client>>& conns,
            const std::vector<ServeSpec>& mix,
            const std::vector<std::size_t>& spec,
            const std::vector<double>& due) {
  const std::size_t n = spec.size(), nc = conns.size();
  Drive d{std::vector<double>(n), std::vector<double>(n),
          std::vector<std::string>(n)};
  std::vector<std::thread> threads;
  std::vector<std::string> errors(2 * nc);
  for (std::size_t k = 0; k < nc; ++k) {
    threads.emplace_back([&, k] {
      try {
        for (std::size_t i = k; i < n; i += nc) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due[i] - now_s()));
          d.sent[i] = now_s();
          conns[k]->send(request_line(mix[spec[i]], i));
        }
      } catch (const std::exception& e) {
        errors[2 * k] = e.what();
      }
    });
    threads.emplace_back([&, k] {
      try {
        for (std::size_t i = k; i < n; i += nc) {
          d.resp[i] = conns[k]->recv_line();
          d.got[i] = now_s();
        }
      } catch (const std::exception& e) {
        errors[2 * k + 1] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return d;
}

/// `n` indices into the mix, every kind equally often (as far as n
/// allows), in a seeded order.
std::vector<std::size_t> shuffled_specs(Rng& rng, std::size_t n,
                                        std::size_t kinds) {
  std::vector<std::size_t> spec(n);
  for (std::size_t i = 0; i < n; ++i) spec[i] = i % kinds;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(spec[i - 1], spec[rng.uniform_int(i)]);
  }
  return spec;
}

/// `n` open-loop jobs alternating tseng and synthetic kinds, each class's
/// kinds equally often in a seeded order. Arrivals at half capacity then
/// rarely queue: a random order put tseng jobs (about ten times a
/// synthetic job's service time) back to back, and its queueing moved
/// the mean latency more than the host did.
std::vector<std::size_t> alternating_specs(Rng& rng, std::size_t n,
                                           std::size_t kinds) {
  const std::vector<std::size_t> tseng =
      shuffled_specs(rng, (n + 1) / 2, kTsengKinds);
  const std::vector<std::size_t> synth =
      shuffled_specs(rng, n / 2, kinds - kTsengKinds);
  std::vector<std::size_t> spec(n);
  for (std::size_t i = 0; i < n; ++i) {
    spec[i] = i % 2 == 0 ? tseng[i / 2] : kTsengKinds + synth[i / 2];
  }
  return spec;
}

}  // namespace

void run_serve_open(const Config& c, Tracer& t, Report& r) {
  const std::vector<ServeSpec> mix = serve_mix(c.seed);
  r.unit = "serve jobs";
  ServeOptions so;
  so.workers = std::min(c.threads, kServeWorkers);
  std::vector<Expected> expected;
  std::unique_ptr<LiveServer> live;

  // Set-up: solo reference flows, one per pool thread at a time and each
  // single-threaded (as a daemon worker runs a job), the mix's artifact
  // footprint (the cache budget is set below it, so the run evicts),
  // server start and one warm job per fabric.
  timed_setup(r, kCompileSetupReps, [&] {
    live.reset();
    expected.clear();
    ArtifactCache probe;
    // Each reference keeps only what the gate compares (and why its
    // routing is illegal, if it is), so at most one flow per thread is
    // alive at a time.
    const std::vector<std::pair<Expected, std::string>> solo =
        parallel_map(mix.size(), [&](std::size_t k) {
          FlowJob job = job_from_json(
              parse_json_object(request_line(mix[k], 0)), so);
          const FlowResult f = run_flow(job.netlist, job.opt);
          make_flow_artifacts(&probe, job.opt.arch, f.placement.nx,
                              f.placement.ny, job.opt.route,
                              job.opt.timing_backend);
          std::string why;
          legal(f.graph_view(), f.placement, f.routing, why);
          Report work;
          work.layer["pack.clusters"] =
              static_cast<double>(f.packing.clusters.size());
          add_place_counters(work, f.placement);
          add_route_counters(work, f.routing.counters, f.routing.iterations);
          return std::pair<Expected, std::string>(
              {hex64(routing_tree_checksum(f.routing)),
               static_cast<double>(f.arch.W),
               static_cast<double>(f.routing.iterations),
               f.placement.final_cost, f.routing.critical_path_s,
               work.layer},
              why);
        });
    for (std::size_t k = 0; k < mix.size(); ++k) {
      if (!solo[k].second.empty()) {
        r.fail("solo reference " + request_line(mix[k], 0) +
               ": illegal routing: " + solo[k].second);
      }
      expected.push_back(solo[k].first);
    }
    so.cache_bytes = probe.stats().resident_bytes / 2;
    live = std::make_unique<LiveServer>(so);
    Client warm(live->server().port());
    for (std::size_t fab = 0; fab < std::size(kFabrics); ++fab) {
      std::size_t k = 0;
      while (mix[k].fabric != fab) ++k;
      warm.send(request_line(mix[k], 0));
      std::string why;
      if (!matches(warm.recv_line(), expected[k], why)) {
        r.fail("warm job: " + why);
      }
    }
  });
  if (!r.correct) return;
  if (c.inject == "checksum") expected[0].checksum = hex64(1);

  // Open loop: jobs due at a fixed rate, dealt round-robin over the
  // connections; latency runs from each job's due time. Then a closed
  // loop: kClosedPerKind jobs of each kind in a seeded order, each sent
  // when the last one's response arrived; wall_s is its makespan.
  Rng rng = Rng::from_stream(c.seed, kStreamServeArrivals);
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(kServeRate * c.seconds));
  const std::vector<std::size_t> spec = alternating_specs(rng, n, mix.size());
  const std::vector<std::size_t> closed_spec =
      shuffled_specs(rng, kClosedPerKind * mix.size(), mix.size());
  const ArtifactCache::Stats before = live->server().cache().stats();
  const JobScheduler::Counters jobs_before =
      live->server().scheduler().counters();
  Drive open;
  std::vector<std::string> closed;
  std::vector<double> due(n);
  {
    std::vector<std::unique_ptr<Client>> conns;
    for (std::size_t k = 0; k < kServeConnections; ++k) {
      conns.push_back(std::make_unique<Client>(live->server().port()));
    }
    const double start = now_s() + 0.05;
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + static_cast<double>(i) / kServeRate;
    }
    {
      auto s = t.span("client.open_loop");
      open = drive(conns, mix, spec, due);
    }
    auto s = t.span("client.closed_loop");
    const double closed_start = now_s();
    for (std::size_t i = 0; i < closed_spec.size(); ++i) {
      conns[0]->send(request_line(mix[closed_spec[i]], n + i));
      closed.push_back(conns[0]->recv_line());
    }
    r.wall_s = now_s() - closed_start;
  }
  r.attempted = n + closed_spec.size();

  // Every response must equal its solo reference; a failed job is a
  // divergence too, since every reference succeeded. A matching job did
  // its reference's work, so the served jobs' counters are summed from
  // the references.
  std::map<std::string, double> work;
  const auto check = [&](const std::vector<std::string>& resp,
                         const std::vector<std::size_t>& sp) {
    for (std::size_t i = 0; i < sp.size(); ++i) {
      std::string why;
      if (!matches(resp[i], expected[sp[i]], why)) {
        if (why.rfind("job failed", 0) == 0) ++r.failed;
        return r.fail(why);
      }
      for (const auto& [name, v] : expected[sp[i]].work) work[name] += v;
    }
    return true;
  };
  if (!check(open.resp, spec) || !check(closed, closed_spec)) return;
  std::vector<double> late;
  for (std::size_t i = 0; i < n; ++i) {
    r.latency_s.push_back(open.got[i] - due[i]);
    late.push_back((open.sent[i] - due[i]) * 1e3);
  }
  const ArtifactCache::Stats cs = live->server().cache().stats();
  std::printf("serve-open: %zu jobs at %.1f/s over %zu connections, then "
              "%zu one at a time in %.3f s; cache budget %zu B: hits %llu "
              "misses %llu evictions %llu\n",
              n, kServeRate, kServeConnections, closed_spec.size(), r.wall_s,
              so.cache_bytes,
              static_cast<unsigned long long>(cs.hits - before.hits),
              static_cast<unsigned long long>(cs.misses - before.misses),
              static_cast<unsigned long long>(cs.evictions - before.evictions));
  if (!t.on()) return;

  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  r.layer.insert(work.begin(), work.end());
  r.layer["service.cache_hits"] = d(cs.hits, before.hits);
  r.layer["service.cache_misses"] = d(cs.misses, before.misses);
  r.layer["service.cache_waits"] =
      d(cs.single_flight_waits, before.single_flight_waits);
  r.layer["service.cache_evictions"] = d(cs.evictions, before.evictions);
  const double reuses =
      r.layer["service.cache_hits"] + r.layer["service.cache_waits"];
  if (reuses + r.layer["service.cache_misses"] > 0.0) {
    r.layer["service.reuse_ratio"] =
        reuses / (reuses + r.layer["service.cache_misses"]);
  }
  r.layer["service.jobs_failed"] =
      d(live->server().scheduler().counters().failed, jobs_before.failed);
  r.layer["client.late_p50_ms"] = percentile(late, 50.0);
  r.layer["client.late_max_ms"] = *std::max_element(late.begin(), late.end());
  finish_ratios(r);
}

}  // namespace nfbench
