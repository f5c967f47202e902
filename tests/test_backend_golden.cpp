// Golden bit-identity for the switch-technology registry refactor: with
// the default Wilton switch block, a timing-driven flow driven by each of
// the three paper variants — addressed by registry NAME, through the
// post-refactor make_view/delay-model path — must reproduce these pinned
// constants on BOTH RR-graph backends. The first constants equalled what
// the pre-registry enum-switch code produced; they were re-captured only
// when the annealer's default start temperature changed the placement.
// Any backend or pattern work must leave them untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/flow.hpp"
#include "netlist/synth_gen.hpp"
#include "service/job_scheduler.hpp"

namespace nemfpga {
namespace {

SynthSpec golden_spec() {
  SynthSpec s;
  s.name = "backend-golden";
  s.n_luts = 300;
  s.n_inputs = 24;
  s.n_outputs = 24;
  s.n_latches = 40;
  return s;
}

FlowOptions golden_options(RrBackend rr) {
  FlowOptions opt;
  opt.arch.W = 32;  // Wilton default pattern, paper-default everything else
  opt.route.timing_driven = true;
  opt.route.rr_backend = rr;
  opt.place.inner_num = 0.3;  // quick but fully deterministic
  return opt;
}

struct Golden {
  const char* backend;          ///< Registry name (device/switch_tech.hpp).
  std::uint64_t checksum;       ///< routing_tree_checksum.
  std::size_t iterations;       ///< PathFinder iterations.
  std::uint64_t critical_bits;  ///< bit_cast<uint64_t>(critical_path_s).
};

/// gtest's default printer dumps the struct's bytes, which include the
/// address of `backend` and so change from run to run under ASLR; print
/// the backend so the listed test names are stable.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.backend; }

// See the file header for where these come from.
constexpr Golden kGolden[] = {
    {"cmos", 7219263367852111428ull, 20, 4484043609928148129ull},
    {"nem-naive", 7421578277110375195ull, 20, 4480705339225961536ull},
    {"nem-opt", 9285302195326038009ull, 22, 4479704213083245399ull},
};

class BackendGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(BackendGolden, WiltonDefaultIsBitExactOnBothRrBackends) {
  const Golden& gold = GetParam();
  const Netlist nl = generate_netlist(golden_spec());
  for (RrBackend rr : {RrBackend::kExplicit, RrBackend::kImplicit}) {
    FlowOptions opt = golden_options(rr);
    opt.timing_backend = gold.backend;
    const FlowResult r = run_flow(nl, opt);
    const char* which =
        rr == RrBackend::kExplicit ? "explicit" : "implicit";
    ASSERT_TRUE(r.routed()) << gold.backend << " " << which;
    EXPECT_EQ(routing_tree_checksum(r.routing), gold.checksum)
        << gold.backend << " " << which << " checksum "
        << routing_tree_checksum(r.routing) << "ull";
    EXPECT_EQ(r.routing.iterations, gold.iterations)
        << gold.backend << " " << which;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.routing.critical_path_s),
              gold.critical_bits)
        << gold.backend << " " << which << " critical bits "
        << std::bit_cast<std::uint64_t>(r.routing.critical_path_s) << "ull";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, BackendGolden, ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           std::string n = info.param.backend;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// The legacy enum spellings must land on the exact same flow as the
// registry names they alias.
TEST(BackendGolden, EnumAliasesAreTheSameFlow) {
  const Netlist nl = generate_netlist(golden_spec());
  FlowOptions by_name = golden_options(RrBackend::kImplicit);
  by_name.timing_backend = "nem_opt";  // legacy alias spelling
  FlowOptions canonical = golden_options(RrBackend::kImplicit);
  canonical.timing_backend = "nem-opt";
  const FlowResult a = run_flow(nl, by_name);
  const FlowResult b = run_flow(nl, canonical);
  EXPECT_EQ(routing_tree_checksum(a.routing),
            routing_tree_checksum(b.routing));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.routing.critical_path_s),
            std::bit_cast<std::uint64_t>(b.routing.critical_path_s));
}

}  // namespace
}  // namespace nemfpga
