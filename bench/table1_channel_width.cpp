// Reproduces paper Table 1 (architecture parameters) and the Sec 3.3
// channel-width determination: per-circuit minimum channel width Wmin from
// the router, and the "low-stress" operating width W = 1.2 x Wmin [Betz
// 99b]. The paper arrived at W = 118 for its suite; our fabric and
// synthetic workloads land in the same regime (shape, not absolute).
//
// Wmin search costs ~8 routings per circuit, so the default run uses a
// representative subset; set NF_FULL=1 for the entire MCNC-20 suite.
// The warm-start search on the smallest circuit runs alone first. The
// other small circuits then run concurrently on the NF_THREADS pool (each
// flow is share-nothing; inside that loop a search probes one width at a
// time, since nested parallel calls run serially). frisc and pdc, whose
// searches take far longer, run after that loop, one at a time, each with
// every thread probing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/flow.hpp"
#include "netlist/mcnc.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace nemfpga;

int main() {
  std::printf("Table 1 — FPGA architecture parameters\n\n");
  const ArchParams a;
  TextTable params({"parameter", "description", "value"});
  params.add_row({"N", "LUTs per LB", std::to_string(a.N)});
  params.add_row({"K", "Inputs per LUT", std::to_string(a.K)});
  params.add_row({"L", "Segment wire length", std::to_string(a.L)});
  params.add_row({"Fcin", "LB input pin flexibility", TextTable::num(a.fc_in, 1)});
  params.add_row({"Fcout", "LB output pin flexibility", TextTable::num(a.fc_out, 1)});
  params.add_row({"Fs", "Switch box flexibility", std::to_string(a.fs)});
  params.add_row({"I", "LB input pins (K(N+1)/2)", std::to_string(a.lb_inputs())});
  std::printf("%s\n", params.to_string().c_str());

  const bool full = std::getenv("NF_FULL") != nullptr;
  std::vector<std::string> names;
  if (full) {
    for (const auto& b : mcnc20()) names.push_back(b.name);
  } else {
    names = {"tseng", "ex5p", "alu4", "seq", "frisc", "pdc"};
  }

  std::printf("Sec 3.3 — minimum channel width per circuit (W = 1.2 x Wmin "
              "policy)\n%s",
              full ? "" : "(subset; NF_FULL=1 runs all 20 MCNC circuits)\n");
  std::printf("(%zu circuits across %zu threads; NF_THREADS overrides)\n\n",
              names.size(), ThreadPool::current().thread_count());

  // Warm start: run the smallest circuit first and seed every other
  // search's grow phase with its successful Wmin — circuits of one suite
  // land in the same width regime, so the grow phase collapses to a
  // single probe round. Deterministic at any thread count: the hint
  // depends only on the smallest circuit's (serial) result.
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < names.size(); ++i) {
    if (benchmark_info(names[i]).luts < benchmark_info(names[smallest]).luts) {
      smallest = i;
    }
  }
  auto search = [](const std::string& name, std::size_t w_hint) {
    FlowOptions opt;
    opt.arch.W = 64;  // provisional; only pack/place use it
    return flow_min_channel_width(generate_benchmark(name), opt, w_hint);
  };
  const auto first = search(names[smallest], 48);
  const std::size_t hint = first.feasible ? first.w_min : 48;
  auto big = [&](std::size_t i) {
    return names[i] == "frisc" || names[i] == "pdc";
  };
  std::vector<ChannelWidthResult> widths(names.size());
  const auto small = parallel_map(names.size(), [&](std::size_t i) {
    if (i == smallest) return first;
    return big(i) ? ChannelWidthResult{} : search(names[i], hint);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    widths[i] = big(i) ? search(names[i], hint) : small[i];
  }

  TextTable t({"circuit", "4-LUTs", "Wmin", "1.2 x Wmin"});
  std::size_t w_need = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& cw = widths[i];
    if (!cw.feasible) {
      t.add_row({names[i], std::to_string(benchmark_info(names[i]).luts),
                 "infeasible", "-"});
      continue;
    }
    t.add_row({names[i], std::to_string(benchmark_info(names[i]).luts),
               std::to_string(cw.w_min), std::to_string(cw.w_low_stress)});
    w_need = std::max(w_need, cw.w_low_stress);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nsuite operating width (max over circuits): W = %zu\n",
              w_need);
  std::printf("paper's value for its suite with VPR 5.0:    W = 118\n");
  return 0;
}
