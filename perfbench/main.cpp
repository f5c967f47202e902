// nfbench — the workload engine behind perfbench/run.py. It takes one flat
// JSON object as its only argument, e.g.
//   nfbench '{"workload":"flow-suite","seed":1,"seconds":12,"trace":1,
//             "trace_file":"t.json"}'
// runs that workload on min(4, cpus) threads, prints human-readable info
// lines, and ends with one flat JSON result line: the end-to-end figures,
// plus on a traced run the per-layer figures the workload measured. Exit
// status 0 means every correctness gate held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "service/json_io.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace nfbench;

namespace {

Config parse_config(const std::string& text) {
  const nemfpga::JsonObject o = nemfpga::parse_json_object(text);
  // Range-check before converting: a double out of an integer type's
  // range does not convert.
  const double seed = o.get_number("seed", 1.0);
  if (!(seed >= 0.0 && seed < 9007199254740992.0 && seed == std::floor(seed))) {
    throw std::runtime_error("seed must be an integer in [0, 2^53)");
  }
  Config c;
  c.workload = o.get_string("workload");
  c.seed = static_cast<std::uint64_t>(seed);
  c.seconds = o.get_number("seconds", 1.0);
  c.trace = o.get_bool("trace", false);
  c.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  c.trace_file = o.get_string("trace_file");
  c.inject = o.get_string("inject");
  if (!(c.seconds > 0.0 && c.seconds <= 3600.0)) {
    throw std::runtime_error("seconds must be in (0, 3600]");
  }
  return c;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : nemfpga::percentile(std::move(v), 50.0);
}

/// Latency figures: the sample count, p50, and the highest of
/// p50/p75/p90/p95/p99/p99.9 that leaves at least ten samples above it
/// (none below 20 samples).
void add_latency_figures(Report& r) {
  const std::size_t n = r.latency_s.size();
  double tail = 0.0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) tail = p;
  }
  r.layer["client.latency_samples"] = static_cast<double>(n);
  r.layer["client.latency_tail_level"] = tail;
  if (tail == 0.0) {
    std::printf("latency: %zu %s, too few for a percentile\n", n,
                r.unit.c_str());
    return;
  }
  r.layer["client.latency_p50_ms"] =
      nemfpga::percentile(r.latency_s, 50.0) * 1e3;
  r.layer["client.latency_tail_ms"] =
      nemfpga::percentile(r.latency_s, tail) * 1e3;
  std::printf("latency: %zu %s, p50 %.3f ms, p%g %.3f ms (%zu above)\n", n,
              r.unit.c_str(), r.layer["client.latency_p50_ms"], tail,
              r.layer["client.latency_tail_ms"],
              static_cast<std::size_t>(static_cast<double>(n) *
                                       (1.0 - tail / 100.0)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: nfbench '<config json>'\n");
    return 2;
  }
  Config c;
  try {
    c = parse_config(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfbench: bad config: %s\n", e.what());
    return 2;
  }
  void (*run)(const Config&, Tracer&, Report&) = nullptr;
  if (c.workload == "flow-suite") run = run_flow_suite;
  if (c.workload == "wmin-table1") run = run_wmin_table1;
  if (c.workload == "serve-open") run = run_serve_open;
  if (c.workload == "eco-sessions") run = run_eco_sessions;
  if (run == nullptr) {
    std::fprintf(stderr, "nfbench: unknown workload '%s'\n",
                 c.workload.c_str());
    return 2;
  }

  nemfpga::ThreadPool pool(c.threads);
  nemfpga::ThreadPool::ScopedUse use(pool);
  Tracer tracer(c.trace);
  Report r;
  try {
    run(c, tracer, r);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }

  std::printf("workload %s seed %llu threads %zu\n", c.workload.c_str(),
              static_cast<unsigned long long>(c.seed), c.threads);
  add_latency_figures(r);
  if (!r.correct) std::printf("GATE FAILED: %s\n", r.error.c_str());
  if (c.trace && !c.trace_file.empty()) {
    std::ofstream(c.trace_file) << tracer.chrome_json();
  }

  nemfpga::JsonWriter w;
  w.field("correct", r.correct)
      .field("attempted", r.attempted)
      .field("failed", r.failed);
  if (!r.correct) w.field("error", r.error);
  w.field("setup_s", median(r.setup_s)).field("wall_s", r.wall_s);
  if (!r.latency_s.empty()) {
    w.field("latency_mean_ms",
            std::accumulate(r.latency_s.begin(), r.latency_s.end(), 0.0) /
                static_cast<double>(r.latency_s.size()) * 1e3);
  }
  if (c.trace) {
    for (const auto& [name, value] : r.layer) w.field(name, value);
  }
  std::printf("%s\n", w.str().c_str());
  return r.correct ? 0 : 1;
}
