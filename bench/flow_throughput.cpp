// Flow-throughput harness for the flow-as-a-service stack (ISSUE 9):
// one job mix — N same-architecture flows differing only in placement
// seed — measured three ways, and emitted as BENCH_serve.json (schema
// nemfpga-serve-bench-1, tools/bench_check.py family "serve"):
//
//   cold-seq    N sequential self-contained run_flow calls, no cache:
//               the pre-ISSUE-9 baseline, every job pays the full
//               RR/lookahead/delay-model build.
//   cold-batch  the same N jobs through JobScheduler(--threads) with a
//               fresh ArtifactCache: the first job on the fabric builds
//               each artifact (single-flight), the rest reuse it.
//   warm-batch  the same N jobs again on the now-warm cache: every
//               artifact request is a hit — the daemon steady state.
//
// The harness asserts per-job bit-identity across all three modes
// before writing anything (the cache and the scheduler may only change
// who pays the build cost, never a routed bit), then records per-mode
// walls, the deterministic cache counters (misses / evictions / reuses
// = hits + single-flight waits / lookahead_cached), and an artifact
// microbench: the wall of a cold make_flow_artifacts (the build) vs a
// warm one (the fetch) — the amortization ratio a warm daemon applies
// to every job's artifact cost, meaningful even on a single-core host
// where job-level parallelism cannot show through wall clock.
//
//   flow_throughput [--out FILE] [--jobs N] [--threads N]
//                   [--benchmark NAME | --synth-luts N] [--w N]
//                   [--timing 0|1] [--seed S] [--cache-mb N] [--smoke]
//
// Wall times are noisy and machine-bound; the counters and checksums
// are deterministic (single-flight makes the build count exact at any
// worker count). bench_check pins the latter and refuses wall
// comparisons across thread counts.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "service/flow_artifacts.hpp"
#include "service/job_scheduler.hpp"
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

/// One measured mode over the same job mix.
struct ModeReport {
  std::string name;
  std::size_t ok_jobs = 0;
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
  // Deterministic cache counters for this mode (deltas; all zero in
  // cold-seq, which runs cacheless).
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_reuses = 0;  ///< hits + single-flight waits.
  std::uint64_t lookahead_cached = 0;  ///< Jobs whose table was a hit.
  double t_lookahead_build_s = 0.0;    ///< Sum of per-job build walls.
  /// FNV-1a over the per-job tree checksums in submission order — the
  /// mode's routing identity (must match the other modes').
  std::uint64_t batch_checksum = 0;
  std::vector<std::uint64_t> job_checksums;
};

std::uint64_t combine_checksums(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t c : v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (c >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Config {
  const char* out = "BENCH_serve.json";
  std::size_t jobs = 16;
  std::size_t threads = 8;
  std::string benchmark = "tseng";  ///< "" when synth_luts is set.
  std::size_t synth_luts = 0;
  std::size_t w = 64;
  bool timing = false;
  std::uint64_t seed0 = 1;
  std::size_t cache_mb = 4096;
};

Netlist make_netlist(const Config& cfg) {
  if (cfg.synth_luts > 0) {
    SynthSpec spec;
    spec.n_luts = cfg.synth_luts;
    spec.n_inputs = 48;
    spec.n_outputs = 48;
    spec.name = "synth-" + std::to_string(cfg.synth_luts);
    return generate_netlist(spec);
  }
  return generate_benchmark(cfg.benchmark);
}

FlowOptions job_options(const Config& cfg, std::size_t job) {
  FlowOptions opt;
  opt.arch.W = cfg.w;
  opt.place.seed = cfg.seed0 + job;
  opt.route.timing_driven = cfg.timing;
  return opt;
}

ModeReport run_cold_seq(const Config& cfg, const Netlist& nl) {
  ModeReport rep;
  rep.name = "cold-seq";
  const double t0 = now_s();
  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    const FlowResult r = run_flow(nl, job_options(cfg, j));
    ++rep.ok_jobs;
    rep.job_checksums.push_back(routing_tree_checksum(r.routing));
    rep.t_lookahead_build_s += r.routing.counters.t_lookahead_build_s;
    rep.lookahead_cached += r.routing.counters.lookahead_cached;
  }
  rep.wall_s = now_s() - t0;
  rep.jobs_per_s = static_cast<double>(cfg.jobs) / rep.wall_s;
  rep.batch_checksum = combine_checksums(rep.job_checksums);
  return rep;
}

ModeReport run_batch(const Config& cfg, const Netlist& nl,
                     const char* name, ArtifactCache& cache,
                     JobScheduler& sched) {
  ModeReport rep;
  rep.name = name;
  const ArtifactCache::Stats before = cache.stats();
  const double t0 = now_s();
  std::vector<std::future<FlowJobResult>> futs;
  futs.reserve(cfg.jobs);
  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    FlowJob job;
    job.name = rep.name + "-" + std::to_string(j);
    job.netlist = nl;
    job.opt = job_options(cfg, j);
    futs.push_back(sched.submit(std::move(job)));
  }
  for (auto& f : futs) {
    const FlowJobResult r = f.get();
    if (!r.ok) {
      std::fprintf(stderr, "flow_throughput: %s failed: %s\n",
                   r.name.c_str(), r.error.c_str());
      std::exit(1);
    }
    ++rep.ok_jobs;
    rep.job_checksums.push_back(r.tree_checksum);
    rep.t_lookahead_build_s += r.counters.t_lookahead_build_s;
    rep.lookahead_cached += r.counters.lookahead_cached;
  }
  rep.wall_s = now_s() - t0;
  rep.jobs_per_s = static_cast<double>(cfg.jobs) / rep.wall_s;
  rep.batch_checksum = combine_checksums(rep.job_checksums);
  const ArtifactCache::Stats after = cache.stats();
  rep.cache_misses = after.misses - before.misses;
  rep.cache_evictions = after.evictions - before.evictions;
  rep.cache_reuses = (after.hits + after.single_flight_waits) -
                     (before.hits + before.single_flight_waits);
  return rep;
}

void write_json(const Config& cfg, const std::vector<ModeReport>& modes,
                double artifact_build_s, double artifact_fetch_s,
                std::size_t resident_bytes, double total_wall_s) {
  FILE* f = std::fopen(cfg.out, "w");
  if (!f) {
    std::fprintf(stderr, "flow_throughput: cannot open %s\n", cfg.out);
    std::exit(1);
  }
  const std::string circuit =
      cfg.synth_luts > 0 ? "synth-" + std::to_string(cfg.synth_luts)
                         : cfg.benchmark;
  std::fprintf(f, "{\n  \"schema\": \"nemfpga-serve-bench-1\",\n");
  // The job-mix tuple bench_check pins: the circuit, the job count, the
  // width, the timing mode and the seed base select which flows run.
  // threads does NOT join it — the scheduler is required to be
  // bit-identical at any worker count, and the cross-thread diff audits
  // exactly that; wall comparisons are refused across thread counts
  // instead.
  std::fprintf(f, "  \"threads\": %zu,\n", cfg.threads);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", circuit.c_str());
  std::fprintf(f, "  \"jobs\": %zu,\n", cfg.jobs);
  std::fprintf(f, "  \"w\": %zu,\n", cfg.w);
  std::fprintf(f, "  \"timing\": %s,\n", cfg.timing ? "true" : "false");
  std::fprintf(f, "  \"seed0\": %llu,\n",
               static_cast<unsigned long long>(cfg.seed0));
  std::fprintf(f, "  \"cache_mb\": %zu,\n", cfg.cache_mb);
  std::fprintf(f, "  \"total_wall_s\": %.6f,\n", total_wall_s);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  // The artifact microbench: what one job's pre-route build costs cold
  // vs out of the warm cache. Wall-clock samples (noisy), but the ratio
  // is the amortization headline and survives single-core hosts.
  std::fprintf(f, "  \"artifact_build_s\": %.6f,\n", artifact_build_s);
  std::fprintf(f, "  \"artifact_fetch_s\": %.9f,\n", artifact_fetch_s);
  std::fprintf(f, "  \"artifact_amortization\": %.1f,\n",
               artifact_fetch_s > 0.0 ? artifact_build_s / artifact_fetch_s
                                      : 0.0);
  std::fprintf(f, "  \"cache_resident_bytes\": %zu,\n", resident_bytes);
  const double cold_seq = modes.front().wall_s;
  const double warm = modes.back().wall_s;
  std::fprintf(f, "  \"speedup_warm_vs_cold_seq\": %.2f,\n",
               warm > 0.0 ? cold_seq / warm : 0.0);
  std::fprintf(f, "  \"circuits\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeReport& m = modes[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", m.name.c_str());
    std::fprintf(f, "      \"ok_jobs\": %zu,\n", m.ok_jobs);
    std::fprintf(f, "      \"batch_checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(m.batch_checksum));
    std::fprintf(f, "      \"cache_misses\": %llu,\n",
                 static_cast<unsigned long long>(m.cache_misses));
    std::fprintf(f, "      \"cache_evictions\": %llu,\n",
                 static_cast<unsigned long long>(m.cache_evictions));
    std::fprintf(f, "      \"cache_reuses\": %llu,\n",
                 static_cast<unsigned long long>(m.cache_reuses));
    std::fprintf(f, "      \"lookahead_cached\": %llu,\n",
                 static_cast<unsigned long long>(m.lookahead_cached));
    std::fprintf(f, "      \"t_lookahead_build_s\": %.6f,\n",
                 m.t_lookahead_build_s);
    std::fprintf(f, "      \"wall_s\": %.6f,\n", m.wall_s);
    std::fprintf(f, "      \"jobs_per_s\": %.3f\n", m.jobs_per_s);
    std::fprintf(f, "    }%s\n", i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool smoke = false;
  const FlagParser fp("flow_throughput", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out")) {
      cfg.out = fp.flag_operand("--out", i);
    } else if (!std::strcmp(argv[i], "--jobs")) {
      cfg.jobs = fp.parse_size_flag("--jobs", i);
    } else if (!std::strcmp(argv[i], "--threads")) {
      cfg.threads = fp.parse_size_flag("--threads", i, 0, kMaxThreads);
    } else if (!std::strcmp(argv[i], "--benchmark")) {
      cfg.benchmark = fp.flag_operand("--benchmark", i);
      cfg.synth_luts = 0;
    } else if (!std::strcmp(argv[i], "--synth-luts")) {
      cfg.synth_luts = fp.parse_size_flag("--synth-luts", i);
    } else if (!std::strcmp(argv[i], "--w")) {
      cfg.w = fp.parse_size_flag("--w", i);
    } else if (!std::strcmp(argv[i], "--timing")) {
      cfg.timing = fp.parse_bool_flag("--timing", i);
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed0 = fp.parse_size_flag("--seed", i);
    } else if (!std::strcmp(argv[i], "--cache-mb")) {
      cfg.cache_mb = fp.parse_size_flag("--cache-mb", i);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else {
      std::fprintf(
          stderr,
          "usage: flow_throughput [--out FILE] [--jobs N] [--threads N] "
          "[--benchmark NAME | --synth-luts N] [--w N] [--timing 0|1] "
          "[--seed S] [--cache-mb N] [--smoke]\n");
      return 2;
    }
  }
  if (smoke) {
    // Small enough for tier-1 ctest: 4 jobs of a ~300-LUT synthetic.
    cfg.jobs = 4;
    cfg.threads = 2;
    cfg.synth_luts = 300;
    cfg.w = 48;
  }
  if (cfg.jobs == 0) fp.flag_error("--jobs", "0");

  const Netlist nl = make_netlist(cfg);
  std::printf(
      "flow_throughput — %zu jobs of %s at W=%zu (%s), %zu workers\n",
      cfg.jobs,
      cfg.synth_luts > 0 ? ("synth-" + std::to_string(cfg.synth_luts)).c_str()
                         : cfg.benchmark.c_str(),
      cfg.w, cfg.timing ? "timing" : "congestion", cfg.threads);

  const double t_all = now_s();
  std::vector<ModeReport> modes;
  modes.push_back(run_cold_seq(cfg, nl));
  std::printf("  %-10s %6.2f s  %6.2f jobs/s\n", "cold-seq",
              modes.back().wall_s, modes.back().jobs_per_s);

  ArtifactCache cache(cfg.cache_mb << 20);
  {
    JobScheduler sched(cache, cfg.threads);
    modes.push_back(run_batch(cfg, nl, "cold-batch", cache, sched));
    std::printf("  %-10s %6.2f s  %6.2f jobs/s  (%llu builds, %llu reuses)\n",
                "cold-batch", modes.back().wall_s, modes.back().jobs_per_s,
                static_cast<unsigned long long>(modes.back().cache_misses),
                static_cast<unsigned long long>(modes.back().cache_reuses));
    modes.push_back(run_batch(cfg, nl, "warm-batch", cache, sched));
    std::printf("  %-10s %6.2f s  %6.2f jobs/s  (%llu builds, %llu reuses)\n",
                "warm-batch", modes.back().wall_s, modes.back().jobs_per_s,
                static_cast<unsigned long long>(modes.back().cache_misses),
                static_cast<unsigned long long>(modes.back().cache_reuses));
  }

  // Bit-identity gate: every mode must have routed every job to the
  // same trees. A mismatch is a correctness bug — refuse to emit a
  // benchmark file that would enshrine it.
  for (std::size_t m = 1; m < modes.size(); ++m) {
    for (std::size_t j = 0; j < cfg.jobs; ++j) {
      if (modes[m].job_checksums[j] != modes[0].job_checksums[j]) {
        std::fprintf(stderr,
                     "flow_throughput: job %zu checksum diverged in %s "
                     "(%016llx vs cold-seq %016llx)\n",
                     j, modes[m].name.c_str(),
                     static_cast<unsigned long long>(
                         modes[m].job_checksums[j]),
                     static_cast<unsigned long long>(
                         modes[0].job_checksums[j]));
        return 1;
      }
    }
  }

  // Artifact microbench: one job's pre-route build, cold vs warm. The
  // warm fetch goes through the same get_or_build path a warm daemon
  // job takes.
  const FlowOptions aopt = job_options(cfg, 0);
  Packing pack = pack_netlist(nl, aopt.arch);
  std::size_t nx = 1;
  while (nx * nx < pack.clusters.size()) ++nx;
  ArtifactCache acache(cfg.cache_mb << 20);
  const double tb = now_s();
  (void)make_flow_artifacts(&acache, aopt.arch, nx, nx, aopt.route,
                            aopt.timing_backend);
  const double artifact_build_s = now_s() - tb;
  const double tf = now_s();
  (void)make_flow_artifacts(&acache, aopt.arch, nx, nx, aopt.route,
                            aopt.timing_backend);
  const double artifact_fetch_s = now_s() - tf;
  std::printf(
      "  artifacts: build %.3f s, warm fetch %.6f s (%.0fx amortized)\n",
      artifact_build_s, artifact_fetch_s,
      artifact_fetch_s > 0.0 ? artifact_build_s / artifact_fetch_s : 0.0);
  std::printf("  warm-batch vs cold-seq: %.2fx\n",
              modes.back().wall_s > 0.0
                  ? modes.front().wall_s / modes.back().wall_s
                  : 0.0);

  write_json(cfg, modes, artifact_build_s, artifact_fetch_s,
             cache.stats().resident_bytes, now_s() - t_all);
  std::printf("flow_throughput: wrote %s\n", cfg.out);
  return 0;
}
