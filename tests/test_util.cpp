#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/linear.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nemfpga {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, FromStringIsStable) {
  Rng a = Rng::from_string("clma"), b = Rng::from_string("clma");
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = Rng::from_string("clma", 1);
  Rng d = Rng::from_string("alu4");
  EXPECT_NE(Rng::from_string("clma").next_u64(), c.next_u64());
  EXPECT_NE(Rng::from_string("clma").next_u64(), d.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(Rng, UniformIntZeroThrows) {
  // Regression: n == 0 used to compute (0ULL - n) % n, a division by zero.
  Rng rng(19);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, ForkStreamsAreIndependentAndReproducible) {
  Rng a(42), b(42);
  // Same parent state + same index -> identical child stream.
  Rng c1 = a.fork(3), c2 = b.fork(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
  // Different indices off one fork point -> different streams.
  Rng base(7);
  const std::uint64_t stream = base.next_u64();
  Rng d0 = Rng::from_stream(stream, 0);
  Rng d1 = Rng::from_stream(stream, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (d0.next_u64() == d1.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkAdvancesParentByOneDraw) {
  Rng a(9), b(9);
  (void)a.fork(0);
  (void)b.next_u64();
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkMatchesFromStream) {
  Rng a(11), b(11);
  const std::uint64_t stream = b.next_u64();
  Rng f = a.fork(5);
  Rng s = Rng::from_stream(stream, 5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(f.next_u64(), s.next_u64());
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.03);
  EXPECT_NEAR(st.stddev(), 2.0, 0.03);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RunningStats, BasicMoments) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  // Regression: empty min()/max() used to return the sentinel 0.0, which
  // read as a legitimate measurement in the bench tables.
  EXPECT_THROW(st.min(), std::logic_error);
  EXPECT_THROW(st.max(), std::logic_error);
  st.add(3.5);
  EXPECT_DOUBLE_EQ(st.mean(), 3.5);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.min(), 3.5);
  EXPECT_DOUBLE_EQ(st.max(), 3.5);
}

TEST(Stats, GeometricMean) {
  std::vector<double> v{1.0, 10.0, 100.0};
  EXPECT_NEAR(geometric_mean(v), 10.0, 1e-9);
  std::vector<double> w{4.0, 9.0};
  EXPECT_NEAR(geometric_mean(w), 6.0, 1e-9);
  std::vector<double> bad{1.0, -1.0};
  EXPECT_THROW(geometric_mean(bad), std::invalid_argument);
  std::vector<double> empty;
  EXPECT_THROW(geometric_mean(empty), std::invalid_argument);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

TEST(Stats, PercentileMatchesSortedReference) {
  // The nth_element-based selection must agree bit-for-bit with the
  // sort-then-interpolate definition at every rank, shuffled input.
  Rng rng(31);
  std::vector<double> values(257);
  for (auto& x : values) x = rng.uniform(-100.0, 100.0);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 1.0, 12.5, 33.3, 50.0, 66.6, 90.0, 99.0, 100.0}) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    EXPECT_DOUBLE_EQ(percentile(values, p), expected) << "p=" << p;
  }
}

TEST(Histogram, BinningAndOutOfRangeTracking) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-5.0);  // underflow (regression: used to fold into bin 0)
  h.add(15.0);  // overflow  (regression: used to fold into bin 9)
  h.add(5.0);   // bin 5
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
  EXPECT_FALSE(h.to_string("label").empty());
  EXPECT_NE(h.to_string().find("below"), std::string::npos);
  EXPECT_NE(h.to_string().find("above"), std::string::npos);
  Histogram in_range(0.0, 1.0, 2);
  in_range.add(0.25);
  EXPECT_EQ(in_range.to_string().find("below"), std::string::npos);
  EXPECT_EQ(in_range.to_string().find("above"), std::string::npos);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Linear, SolvesIdentity) {
  Matrix a(3, 3);
  for (int i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  auto x = lu.solve({1.0, 2.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Linear, SolvesGeneralSystem) {
  // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linear, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  auto x = lu.solve({7.0, 9.0});
  EXPECT_NEAR(x[0], 9.0, 1e-12);
  EXPECT_NEAR(x[1], 7.0, 1e-12);
}

TEST(Linear, DetectsSingular) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  LuSolver lu;
  EXPECT_FALSE(lu.factor(a));
}

TEST(Linear, RandomSystemRoundTrip) {
  Rng rng(23);
  const std::size_t n = 20;
  Matrix a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = rng.uniform(-5, 5);
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1, 1);
    a.at(i, i) += 10.0;  // diagonally dominant -> well conditioned
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
  }
  LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  auto x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Linear, SolveSizeMismatchThrows) {
  Matrix a(2, 2);
  a.at(0, 0) = a.at(1, 1) = 1.0;
  LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  EXPECT_THROW(lu.solve({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Table, FormatsAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 1)});
  t.add_row({"b", TextTable::ratio(2.0)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("2.00x"), std::string::npos);
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Units, Constants) {
  EXPECT_NEAR(kEps0, 8.854e-12, 1e-14);
  EXPECT_DOUBLE_EQ(275 * nano, 2.75e-7);
  EXPECT_DOUBLE_EQ(20 * atto, 2e-17);
}

// The shared CLI operand parsers accept exactly the whole token: the
// inputs std::stoul/std::stod used to misread are all rejected.
TEST(Flags, SizeParserIsStrict) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("118"), 118u);
  EXPECT_EQ(parse_size("9999999999999999999"), 9999999999999999999ull);
  for (const char* bad : {"", "3x", "x3", "-3", "+3", " 3", "1e30", "nan",
                          "3.0", "10000000000000000000"}) {
    EXPECT_FALSE(parse_size(bad)) << bad;
  }
}

TEST(Flags, DoubleParserIsStrict) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2e-3"), -2e-3);
  EXPECT_EQ(parse_double("4"), 4.0);
  for (const char* bad : {"", "1.2q", "nan", "-nan", "inf", "-inf", "1e400",
                          "1.5 "}) {
    EXPECT_FALSE(parse_double(bad)) << bad;
  }
}

}  // namespace
}  // namespace nemfpga
