// Property sweep: the paper's qualitative claims must hold across
// qualitatively different workload shapes, not just the tuned fixtures —
// combinational-only, register-heavy, IO-heavy and deep/narrow circuits.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/study.hpp"
#include "netlist/synth_gen.hpp"

namespace nemfpga {
namespace {

struct Shape {
  const char* name;
  std::size_t luts;
  std::size_t inputs;
  std::size_t outputs;
  std::size_t latches;
  double locality;
};

/// gtest's default printer dumps the struct's bytes, which include the
/// address of `name` and so change from run to run under ASLR; print the
/// shape name so the listed test names are stable.
void PrintTo(const Shape& sh, std::ostream* os) { *os << sh.name; }

class StudyShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(StudyShapeSweep, HeadlineInvariantsHold) {
  const Shape& sh = GetParam();
  SynthSpec spec;
  spec.name = std::string("shape-") + sh.name;
  spec.n_luts = sh.luts;
  spec.n_inputs = sh.inputs;
  spec.n_outputs = sh.outputs;
  spec.n_latches = sh.latches;
  spec.locality = sh.locality;

  FlowOptions opt;
  opt.arch.W = 64;
  const auto flow = run_flow(generate_netlist(spec), opt);
  const auto st = run_study(flow);

  // Invariant 1: relays make the same mapped design at least as fast
  // (low Ron, no Vt drop) at every sweep point up to moderate downsizing.
  EXPECT_GE(st.naive.vs.speedup, 1.0) << sh.name;
  EXPECT_GE(st.sweep.front().vs.speedup, 1.0) << sh.name;

  // Invariant 2: the technique always deepens leakage savings over naive.
  EXPECT_GT(st.preferred.vs.leakage_reduction,
            st.naive.vs.leakage_reduction) << sh.name;

  // Invariant 3: every variant strictly reduces leakage (no SRAM, no pass
  // transistors, fewer/smaller buffers) and area (stacking).
  EXPECT_GT(st.naive.vs.leakage_reduction, 1.2) << sh.name;
  EXPECT_GT(st.preferred.vs.leakage_reduction, 3.0) << sh.name;
  EXPECT_GT(st.naive.vs.area_reduction, 1.4) << sh.name;
  EXPECT_GT(st.preferred.vs.area_reduction, 1.8) << sh.name;

  // Invariant 4: iso-throughput dynamic power never increases.
  EXPECT_GT(st.naive.vs.dynamic_reduction, 1.0) << sh.name;
  EXPECT_GT(st.preferred.vs.dynamic_reduction, 1.2) << sh.name;

  // Invariant 5: the preferred corner honors the no-speed-penalty rule.
  EXPECT_GE(st.preferred.vs.speedup, 1.0) << sh.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StudyShapeSweep,
    ::testing::Values(Shape{"comb", 350, 24, 20, 0, 1.0},
                      Shape{"registered", 300, 20, 16, 250, 1.0},
                      Shape{"io-heavy", 250, 80, 70, 30, 1.0},
                      Shape{"deep-local", 400, 10, 8, 40, 0.5},
                      Shape{"flat-global", 250, 24, 20, 30, 2.0}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

}  // namespace
}  // namespace nemfpga
