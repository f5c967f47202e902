// Architecture-exploration study (paper Sec 5: "Exploration of new FPGA
// architectures that utilize unique properties of NEM relays"): sweep
// every registered switch-technology backend across switch-block
// patterns and fabric knobs (segment length L, input flexibility Fc),
// mapping the circuit once per fabric and re-evaluating it electrically
// per backend — the paper's methodology, widened from {CMOS, NEM} to the
// whole registry. Emits BENCH_arch.json (schema nemfpga-arch-bench-1)
// for tools/bench_check.py: every metric below is a deterministic
// function of the (circuit, fabric, backend) triple, so any drift
// between same-configuration runs is a correctness bug, not noise.
//
//   arch_exploration [--out FILE] [--circuit NAME] [--smoke]
//                    [--backends a,b,c] [--sb-patterns a,b]
//                    [--seg-lengths 2,4,8] [--fc-in 0.2,0.4]
//                    [--w N] [--downsize F]
//
// --backends / --sb-patterns take registry names (device/switch_tech.hpp
// and arch/params.hpp); an unknown name is rejected listing the
// registered choices. --downsize applies only to backends whose buffer
// policy supports wire-buffer downsizing (e.g. nem-opt); the others
// evaluate at the neutral 1.0. The NEM-vs-CMOS paper slice (Table 2's
// reduction column) is recomputed at the Table 1 operating point and
// reported both in the table and the JSON.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "device/switch_tech.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace nemfpga;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- list flags over the shared strict parser --------------------------

std::vector<std::string> split_list(const char* tok) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = tok; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<std::string> parse_backends_flag(const FlagParser& fp,
                                             const char* flag, int& i) {
  const char* tok = fp.flag_operand(flag, i);
  std::vector<std::string> out;
  for (const std::string& name : split_list(tok)) {
    if (!switch_technology_registered(name)) {
      fp.flag_error(flag, name,
                    " (registered: " + registered_switch_technology_names() +
                        ")");
    }
    out.push_back(std::string(switch_technology(name).name()));
  }
  if (out.empty()) fp.flag_error(flag, tok);
  return out;
}

std::vector<SbPattern> parse_patterns_flag(const FlagParser& fp,
                                           const char* flag, int& i) {
  const char* tok = fp.flag_operand(flag, i);
  std::vector<SbPattern> out;
  for (const std::string& name : split_list(tok)) {
    try {
      out.push_back(sb_pattern_from_name(name));
    } catch (const std::invalid_argument&) {
      fp.flag_error(flag, name, " (recognized: " + sb_pattern_names() + ")");
    }
  }
  if (out.empty()) fp.flag_error(flag, tok);
  return out;
}

std::vector<std::size_t> parse_size_list_flag(const FlagParser& fp,
                                              const char* flag, int& i) {
  const char* tok = fp.flag_operand(flag, i);
  std::vector<std::size_t> out;
  for (const std::string& s : split_list(tok)) {
    out.push_back(fp.size_value(flag, s));
  }
  if (out.empty()) fp.flag_error(flag, tok);
  return out;
}

std::vector<double> parse_double_list_flag(const FlagParser& fp,
                                           const char* flag, int& i) {
  const char* tok = fp.flag_operand(flag, i);
  std::vector<double> out;
  for (const std::string& s : split_list(tok)) {
    out.push_back(fp.double_value(flag, s));
  }
  if (out.empty()) fp.flag_error(flag, tok);
  return out;
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

struct FabricPoint {
  SbPattern pattern = SbPattern::kWilton;
  std::size_t L = 4;
  double fc_in = 0.2;
};

struct Entry {
  std::string name;  ///< "backend/pattern/L4/fc0.2" — the bench_check key.
  std::string backend;
  std::string sb_pattern;
  std::size_t seg_len = 0;
  double fc_in = 0.0;
  double downsize = 1.0;
  bool routed = false;
  std::uint64_t tree_checksum = 0;
  double critical_path_s = 0.0;
  double dynamic_w = 0.0;
  double leakage_w = 0.0;
  double area_m2 = 0.0;
  double wall_s = 0.0;
};

std::string fmt_fc(double fc) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", fc);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_arch.json";
  std::string circuit = "tseng";
  bool smoke = false;
  std::vector<std::string> backends = {"cmos", "nem-naive", "nem-opt",
                                       "rram"};
  std::vector<SbPattern> patterns = {SbPattern::kWilton, SbPattern::kSubset,
                                     SbPattern::kUniversal};
  std::vector<std::size_t> seg_lengths = {2, 4, 8};
  std::vector<double> fc_ins = {0.2, 0.4};
  std::size_t w = 118;
  double downsize = 4.0;

  const FlagParser fp("arch_exploration", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out")) {
      out = fp.flag_operand("--out", i);
    } else if (!std::strcmp(argv[i], "--circuit")) {
      circuit = fp.flag_operand("--circuit", i);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else if (!std::strcmp(argv[i], "--backends")) {
      backends = parse_backends_flag(fp, "--backends", i);
    } else if (!std::strcmp(argv[i], "--sb-patterns")) {
      patterns = parse_patterns_flag(fp, "--sb-patterns", i);
    } else if (!std::strcmp(argv[i], "--seg-lengths")) {
      seg_lengths = parse_size_list_flag(fp, "--seg-lengths", i);
    } else if (!std::strcmp(argv[i], "--fc-in")) {
      fc_ins = parse_double_list_flag(fp, "--fc-in", i);
    } else if (!std::strcmp(argv[i], "--w")) {
      w = fp.parse_size_flag("--w", i);
    } else if (!std::strcmp(argv[i], "--downsize")) {
      downsize = fp.parse_double_flag("--downsize", i);
    } else {
      std::fprintf(stderr,
                   "arch_exploration: unknown flag '%s'\n"
                   "usage: arch_exploration [--out FILE] [--circuit NAME] "
                   "[--smoke] [--backends a,b,c] [--sb-patterns a,b] "
                   "[--seg-lengths 2,4,8] [--fc-in 0.2,0.4] [--w N] "
                   "[--downsize F]\n",
                   argv[i]);
      return 2;
    }
  }

  if (smoke) {
    circuit = "smoke";
    patterns = {SbPattern::kWilton, SbPattern::kSubset};
    seg_lengths = {2};
    fc_ins = {0.2};
    w = 24;
  }

  auto make_circuit = [&] {
    if (circuit == "smoke") {
      SynthSpec s;
      s.name = "smoke";
      s.n_luts = 120;
      s.n_inputs = 16;
      s.n_outputs = 16;
      return generate_netlist(s);
    }
    return generate_benchmark(circuit);
  };

  std::printf("architecture exploration — %zu backends x %zu patterns x "
              "fabric knobs\n(circuit: %s, W = %zu, downsize %g where "
              "supported)\n\n",
              backends.size(), patterns.size(), circuit.c_str(), w,
              downsize);

  // Fabric points: the L sweep at the first Fc, plus the Fc sweep at the
  // Table 1 segment length — the paper's neighborhood, not a full grid.
  std::vector<FabricPoint> points;
  for (SbPattern p : patterns) {
    for (std::size_t L : seg_lengths) {
      points.push_back({p, L, fc_ins.front()});
    }
    for (std::size_t k = 1; k < fc_ins.size(); ++k) {
      points.push_back({p, 4, fc_ins[k]});
    }
  }

  TextTable t({"pattern", "L", "fc_in", "backend", "cp", "dyn", "leak",
               "area"});
  std::vector<Entry> entries;
  const double t_start = now_s();
  for (const FabricPoint& pt : points) {
    FlowOptions opt;
    opt.arch.W = w;
    opt.arch.L = pt.L;
    opt.arch.fc_in = pt.fc_in;
    opt.arch.sb_pattern = pt.pattern;
    const std::string fabric = std::string(sb_pattern_name(pt.pattern)) +
                               "/L" + std::to_string(pt.L) + "/fc" +
                               fmt_fc(pt.fc_in);

    bool routed = false;
    FlowResult flow;
    std::uint64_t checksum = 0;
    const double t_fabric = now_s();
    try {
      flow = run_flow(make_circuit(), opt);
      routed = true;
      checksum = routing_checksum(flow.routing);
    } catch (const std::exception&) {
      // Unroutable fabric: still reported (the verdict is a correctness
      // field — a fabric flipping routability is a routing bug).
    }
    const double map_wall = now_s() - t_fabric;

    for (const std::string& backend : backends) {
      Entry e;
      e.name = backend + "/" + fabric;
      e.backend = backend;
      e.sb_pattern = sb_pattern_name(pt.pattern);
      e.seg_len = pt.L;
      e.fc_in = pt.fc_in;
      const bool can_downsize =
          switch_technology(backend).buffer_policy().supports_wire_downsize;
      e.downsize = can_downsize ? downsize : 1.0;
      e.routed = routed;
      e.tree_checksum = checksum;
      if (routed) {
        const double t0 = now_s();
        const VariantMetrics m = evaluate_backend(flow, backend, e.downsize);
        e.critical_path_s = m.critical_path;
        e.dynamic_w = m.dynamic_power;
        e.leakage_w = m.leakage_power;
        e.area_m2 = m.area;
        e.wall_s = (now_s() - t0) + map_wall / double(backends.size());
        t.add_row({std::string(e.sb_pattern), std::to_string(e.seg_len),
                   fmt_fc(e.fc_in), backend,
                   TextTable::num(m.critical_path * 1e9, 2) + " ns",
                   TextTable::num(m.dynamic_power * 1e3, 3) + " mW",
                   TextTable::num(m.leakage_power * 1e6, 2) + " uW",
                   TextTable::num(m.area * 1e6, 3) + " mm2"});
      } else {
        t.add_row({std::string(e.sb_pattern), std::to_string(e.seg_len),
                   fmt_fc(e.fc_in), backend, "unroutable", "-", "-", "-"});
      }
      entries.push_back(std::move(e));
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  // NEM-vs-CMOS paper slice at the Table 1 operating point (Wilton, the
  // first fabric point): the preferred-corner reduction column.
  bool slice_ok = false;
  VersusBaseline slice{};
  double slice_downsize = 1.0;
  {
    FlowOptions opt;
    opt.arch.W = w;
    opt.arch.L = smoke ? seg_lengths.front() : 4;
    try {
      const auto flow = run_flow(make_circuit(), opt);
      const StudyResult st = run_study(flow);
      slice = st.preferred.vs;
      slice_downsize = st.preferred.downsize;
      slice_ok = true;
      std::printf(
          "NEM-vs-CMOS paper slice (Wilton, L=%zu, downsize %gx):\n"
          "  speedup %.2fx  dynamic %.2fx  leakage %.2fx  area %.2fx\n",
          opt.arch.L, slice_downsize, slice.speedup,
          slice.dynamic_reduction, slice.leakage_reduction,
          slice.area_reduction);
    } catch (const std::exception& e) {
      std::printf("paper slice unavailable: %s\n", e.what());
    }
  }
  const double total_wall = now_s() - t_start;

  FILE* f = std::fopen(out, "w");
  if (!f) {
    std::fprintf(stderr, "arch_exploration: cannot open %s\n", out);
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"nemfpga-arch-bench-1\",\n");
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", circuit.c_str());
  std::fprintf(f, "  \"w\": %zu,\n", w);
  std::fprintf(f, "  \"downsize\": %.17g,\n", downsize);
  std::fprintf(f, "  \"total_wall_s\": %.6f,\n", total_wall);
  if (slice_ok) {
    std::fprintf(f,
                 "  \"paper_slice\": {\n"
                 "    \"downsize\": %.17g,\n"
                 "    \"speedup\": %.17g,\n"
                 "    \"dynamic_reduction\": %.17g,\n"
                 "    \"leakage_reduction\": %.17g,\n"
                 "    \"area_reduction\": %.17g\n  },\n",
                 slice_downsize, slice.speedup, slice.dynamic_reduction,
                 slice.leakage_reduction, slice.area_reduction);
  }
  std::fprintf(f, "  \"circuits\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", e.name.c_str());
    std::fprintf(f, "      \"backend\": \"%s\",\n", e.backend.c_str());
    std::fprintf(f, "      \"sb_pattern\": \"%s\",\n", e.sb_pattern.c_str());
    std::fprintf(f, "      \"seg_len\": %zu,\n", e.seg_len);
    std::fprintf(f, "      \"fc_in\": %.17g,\n", e.fc_in);
    std::fprintf(f, "      \"downsize\": %.17g,\n", e.downsize);
    std::fprintf(f, "      \"routed\": %s,\n", e.routed ? "true" : "false");
    std::fprintf(f, "      \"tree_checksum\": \"%016llx\",\n",
                 static_cast<unsigned long long>(e.tree_checksum));
    std::fprintf(f, "      \"critical_path_s\": %.17g,\n",
                 e.critical_path_s);
    std::fprintf(f, "      \"dynamic_w\": %.17g,\n", e.dynamic_w);
    std::fprintf(f, "      \"leakage_w\": %.17g,\n", e.leakage_w);
    std::fprintf(f, "      \"area_m2\": %.17g,\n", e.area_m2);
    std::fprintf(f, "      \"wall_s\": %.6f\n", e.wall_s);
    std::fprintf(f, "    }%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu entries)\n", out, entries.size());
  return 0;
}
