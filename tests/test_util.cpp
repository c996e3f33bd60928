// Unit tests for src/util: piecewise-linear algebra, canonical pairwise
// summation, math helpers, parallelism, tables, RNG determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/pairwise_sum.hpp"
#include "util/parallel.hpp"
#include "util/piecewise_linear.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace pss {
namespace {

using util::PiecewiseLinear;

// ---------------------------------------------------------------- asserts

TEST(Assert, RequireThrowsInvalidArgument) {
  EXPECT_THROW(PSS_REQUIRE(false, "boom"), std::invalid_argument);
}

TEST(Assert, CheckThrowsLogicError) {
  EXPECT_THROW(PSS_CHECK(false, "boom"), std::logic_error);
}

TEST(Assert, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(PSS_REQUIRE(true, ""));
  EXPECT_NO_THROW(PSS_CHECK(true, ""));
}

// ------------------------------------------------------------------- math

TEST(Math, AlmostEqualBasics) {
  EXPECT_TRUE(util::almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(util::almost_equal(1.0, 1.001));
  EXPECT_TRUE(util::almost_equal(0.0, 0.0));
}

TEST(Math, LeqTolAllowsTinyOvershoot) {
  EXPECT_TRUE(util::leq_tol(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(util::leq_tol(1.01, 1.0));
}

TEST(Math, PosPowZeroBase) {
  EXPECT_DOUBLE_EQ(util::pos_pow(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(util::pos_pow(-1.0, 2.0), 0.0);  // clamped domain
  EXPECT_DOUBLE_EQ(util::pos_pow(2.0, 3.0), 8.0);
}

TEST(Math, BisectMonotoneFindsRoot) {
  auto f = [](double x) { return x * x; };
  const double root = util::bisect_monotone(f, 0.0, 10.0, 9.0);
  EXPECT_NEAR(root, 3.0, 1e-9);
}

// -------------------------------------------------------- piecewise linear

TEST(PiecewiseLinear, EvalInterpolatesAndExtends) {
  auto f = PiecewiseLinear::from_knots({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}},
                                       0.5);
  EXPECT_DOUBLE_EQ(f.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.eval(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f.eval(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f.eval(2.0), 2.0);  // flat segment
  EXPECT_DOUBLE_EQ(f.eval(5.0), 3.0);  // final slope
}

TEST(PiecewiseLinear, ZeroFunction) {
  auto z = PiecewiseLinear::zero();
  EXPECT_DOUBLE_EQ(z.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(z.eval(100.0), 0.0);
  EXPECT_FALSE(z.first_at_least(1.0).has_value());
}

TEST(PiecewiseLinear, FirstAtLeastOnSegments) {
  auto f = PiecewiseLinear::from_knots({{0.0, 0.0}, {2.0, 4.0}}, 1.0);
  ASSERT_TRUE(f.first_at_least(2.0).has_value());
  EXPECT_DOUBLE_EQ(*f.first_at_least(2.0), 1.0);
  EXPECT_DOUBLE_EQ(*f.first_at_least(0.0), 0.0);
  EXPECT_DOUBLE_EQ(*f.first_at_least(5.0), 3.0);  // beyond last knot
}

TEST(PiecewiseLinear, FirstAtLeastSkipsFlatRegions) {
  auto f = PiecewiseLinear::from_knots(
      {{0.0, 0.0}, {1.0, 1.0}, {4.0, 1.0}, {5.0, 2.0}}, 0.0);
  // Value 1 is first reached at x = 1 (start of the flat plateau).
  EXPECT_DOUBLE_EQ(*f.first_at_least(1.0), 1.0);
  EXPECT_DOUBLE_EQ(*f.first_at_least(1.5), 4.5);
  EXPECT_FALSE(f.first_at_least(2.5).has_value());  // final slope 0
}

TEST(PiecewiseLinear, SumMergesBreakpoints) {
  auto f = PiecewiseLinear::from_knots({{0.0, 0.0}, {2.0, 2.0}}, 1.0);
  auto g = PiecewiseLinear::from_knots({{0.0, 1.0}, {1.0, 1.0}, {3.0, 5.0}},
                                       2.0);
  std::vector<PiecewiseLinear> fns{f, g};
  auto h = PiecewiseLinear::sum(fns);
  for (double x : {0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 10.0})
    EXPECT_NEAR(h.eval(x), f.eval(x) + g.eval(x), 1e-12) << "x=" << x;
  EXPECT_DOUBLE_EQ(h.final_slope(), 3.0);
}

TEST(PiecewiseLinear, DuplicateXKnotsMerge) {
  auto f = PiecewiseLinear::from_knots({{0.0, 0.0}, {1.0, 1.0}, {1.0, 1.0}},
                                       1.0);
  EXPECT_DOUBLE_EQ(f.eval(1.0), 1.0);
  EXPECT_EQ(f.knots().size(), 2u);
}

TEST(PiecewiseLinear, RejectsDecreasingY) {
  EXPECT_THROW(
      PiecewiseLinear::from_knots({{0.0, 1.0}, {1.0, 0.0}}, 0.0),
      std::invalid_argument);
}

TEST(PiecewiseLinear, RejectsNegativeFinalSlope) {
  EXPECT_THROW(PiecewiseLinear::from_knots({{0.0, 0.0}}, -1.0),
               std::invalid_argument);
}

TEST(PiecewiseLinear, InverseRoundTripsRandomized) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PiecewiseLinear::Knot> knots{{0.0, 0.0}};
    double x = 0.0, y = 0.0;
    for (int i = 0; i < 6; ++i) {
      x += rng.uniform(0.1, 2.0);
      y += rng.uniform(0.0, 3.0);
      knots.push_back({x, y});
    }
    auto f = PiecewiseLinear::from_knots(knots, rng.uniform(0.1, 2.0));
    for (int probe = 0; probe < 10; ++probe) {
      const double target = rng.uniform(0.0, y * 1.5 + 1.0);
      auto inv = f.first_at_least(target);
      ASSERT_TRUE(inv.has_value());
      EXPECT_GE(f.eval(*inv) + 1e-9, target);
      // Minimality: slightly left of the inverse must be below target
      // (unless the inverse is at the domain start).
      if (*inv > 1e-9) {
        EXPECT_LT(f.eval(*inv - 1e-6) - 1e-9, target);
      }
    }
  }
}

// Bitwise equality that also tells -0.0 from 0.0.
void expect_same_bits(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

std::vector<PiecewiseLinear::Knot> random_knots(util::Rng& rng, int n) {
  std::vector<PiecewiseLinear::Knot> knots{{0.0, 0.0}};
  double x = 0.0, y = 0.0;
  for (int i = 1; i < n; ++i) {
    x += rng.uniform(0.05, 2.0);
    y += rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 3.0);  // some flats
    knots.push_back({x, y});
  }
  return knots;
}

TEST(PiecewiseLinear, HintedEvalMatchesEvalForEveryHint) {
  util::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = int(rng.uniform_int(1, 9));
    const auto f =
        PiecewiseLinear::from_knots(random_knots(rng, n), rng.uniform(0.0, 2.0));
    const auto& k = f.knots();
    // Probes: every knot, every midpoint, the front, and beyond the back.
    std::vector<double> xs{k.front().x, k.back().x + 0.5, k.back().x + 1e6};
    for (std::size_t i = 0; i < k.size(); ++i) {
      xs.push_back(k[i].x);
      if (i + 1 < k.size()) xs.push_back(0.5 * (k[i].x + k[i + 1].x));
    }
    // Hints: every index, one and two past the end, and far out of range.
    std::vector<std::size_t> hints{std::numeric_limits<std::size_t>::max(),
                                   std::numeric_limits<std::size_t>::max() - 1};
    for (std::size_t h = 0; h <= k.size() + 2; ++h) hints.push_back(h);
    for (const double x : xs)
      for (const std::size_t hint : hints) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " x " << x
                                        << " hint " << hint);
        expect_same_bits(f.eval(x, hint), f.eval(x));
      }
  }
}

TEST(PiecewiseLinear, UpperIndexIsFirstKnotPastX) {
  const auto f = PiecewiseLinear::from_knots(
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 3.0}}, 1.0);
  EXPECT_EQ(f.upper_index(0.0), 1u);
  EXPECT_EQ(f.upper_index(0.5), 1u);
  EXPECT_EQ(f.upper_index(1.0), 2u);
  EXPECT_EQ(f.upper_index(2.0), 3u);
  EXPECT_EQ(f.upper_index(9.0), 3u);
}

TEST(PiecewiseLinear, AssignInPlaceMatchesFromKnots) {
  util::Rng rng(57);
  PiecewiseLinear f = PiecewiseLinear::from_knots(random_knots(rng, 6), 1.0);
  // Grow (more knots than f holds), shrink, and grow again: each result
  // equals a fresh build bit for bit.
  for (const int n : {11, 3, 1, 17, 5}) {
    const auto knots = random_knots(rng, n);
    const double slope = rng.uniform(0.0, 2.0);
    const std::size_t before = f.knots().capacity();
    f.assign(knots, slope);
    const auto fresh = PiecewiseLinear::from_knots(knots, slope);
    ASSERT_EQ(f.knots().size(), fresh.knots().size());
    for (std::size_t i = 0; i < fresh.knots().size(); ++i) {
      expect_same_bits(f.knots()[i].x, fresh.knots()[i].x);
      expect_same_bits(f.knots()[i].y, fresh.knots()[i].y);
    }
    expect_same_bits(f.final_slope(), fresh.final_slope());
    if (std::size_t(n) > before)
      EXPECT_EQ(f.knots().capacity(), std::size_t(n)) << "exact growth";
    else
      EXPECT_EQ(f.knots().capacity(), before) << "storage reused";
  }
}

// ------------------------------------------------------------ zero prefix

// The answer a caller that trusts zero_until() uses: +0.0 up to it, eval
// beyond. eval(x) and eval(x, hint) for every hint must give it bit for
// bit at every knot, at zero_until() and one ulp to either side, and
// between knots.
void expect_zero_prefix_holds(const PiecewiseLinear& f) {
  const auto& k = f.knots();
  const double z = f.zero_until();
  std::vector<double> xs;
  for (std::size_t i = 0; i < k.size(); ++i) {
    xs.push_back(k[i].x);
    if (i + 1 < k.size()) {
      xs.push_back(0.5 * (k[i].x + k[i + 1].x));
      xs.push_back(k[i].x + 0.01 * (k[i + 1].x - k[i].x));
    }
  }
  xs.push_back(k.back().x + 0.5);
  if (std::isfinite(z)) {
    xs.push_back(z);
    xs.push_back(std::nextafter(z, util::kInf));
    // One ulp below the front is still inside eval's domain tolerance.
    xs.push_back(std::nextafter(z, -util::kInf));
  }
  for (const double x : xs) {
    const double fast = x <= z ? 0.0 : f.eval(x);
    SCOPED_TRACE(testing::Message() << "x " << x << " zero_until " << z);
    expect_same_bits(f.eval(x), fast);
    for (std::size_t hint = 0; hint <= k.size() + 1; ++hint)
      expect_same_bits(f.eval(x, hint), fast);
  }
}

TEST(PiecewiseLinear, ZeroPrefixEdgeCases) {
  const double inf = util::kInf;
  const double neg_inf = -inf;
  struct Case {
    std::vector<PiecewiseLinear::Knot> knots;
    double slope;
    double zero_until;
  };
  const std::vector<Case> cases{
      // No prefix at all.
      {{{0.0, 1.0}, {1.0, 2.0}}, 1.0, neg_inf},
      // -0.0 does not count: not as the first knot, and it ends a run.
      {{{0.0, -0.0}, {1.0, 0.0}, {2.0, 1.0}}, 1.0, neg_inf},
      {{{0.0, 0.0}, {1.0, -0.0}, {2.0, 1.0}}, 1.0, 0.0},
      {{{0.0, 0.0}, {1.0, 0.0}, {2.0, -0.0}, {3.0, 2.0}}, 1.0, 1.0},
      // Merged duplicate x: the larger y is kept, and it ends the run.
      {{{0.0, 0.0}, {1.0, 0.0}, {1.0, 2.0}, {3.0, 4.0}}, 1.0, 0.0},
      {{{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}, {2.0, 3.0}}, 1.0, 1.0},
      // A dip within the tolerance is clamped to +0.0 and extends the run.
      {{{0.0, 0.0}, {1.0, -1e-12}, {2.0, 1.0}}, 1.0, 1.0},
      // The prefix reaches the last knot: kept for a finite final slope.
      {{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 0.0, 2.0},
      {{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 0.5, 2.0},
      {{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, inf, 1.0},
      {{{0.0, 0.0}}, 0.0, 0.0},
      {{{0.0, 0.0}}, inf, neg_inf},
      // An insertion-curve shape: zero until the pool speed, then rising.
      {{{0.0, 0.0}, {0.5, 0.0}, {1.5, 0.75}, {4.0, 3.0}}, 1.0, 0.5},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "case " << c);
    const auto f = PiecewiseLinear::from_knots(cases[c].knots, cases[c].slope);
    expect_same_bits(f.zero_until(), cases[c].zero_until);
    expect_zero_prefix_holds(f);
  }
  // With an infinite final slope, eval at the last knot is NaN (inf * 0):
  // that is why such a knot is left out of the prefix.
  const auto steep = PiecewiseLinear::from_knots({{0.0, 0.0}, {1.0, 0.0}}, inf);
  EXPECT_TRUE(std::isnan(steep.eval(1.0)));
  // A default-constructed function has no prefix.
  expect_same_bits(PiecewiseLinear().zero_until(), neg_inf);
}

TEST(PiecewiseLinear, ZeroPrefixHoldsOnRandomCurves) {
  util::Rng rng(4711);
  PiecewiseLinear reused;
  int with_prefix = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // A leading run of zero knots (sometimes -0.0), then rising knots,
    // with a zero, finite or infinite final slope, over a domain that may
    // start below 0.
    const int zeros = int(rng.uniform_int(0, 5));
    const int rising = int(rng.uniform_int(0, 5));
    std::vector<PiecewiseLinear::Knot> knots;
    double x = rng.uniform(-2.0, 2.0);
    for (int i = 0; i < zeros; ++i) {
      knots.push_back({x, rng.bernoulli(0.1) ? -0.0 : 0.0});
      x += rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.05, 2.0);  // duplicates
    }
    double y = 0.0;
    for (int i = 0; i < rising || knots.empty(); ++i) {
      y += rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 3.0);
      knots.push_back({x, y});
      x += rng.uniform(0.05, 2.0);
    }
    const double draw = rng.uniform(0.0, 1.0);
    const double slope =
        draw < 0.2 ? 0.0 : draw < 0.4 ? util::kInf : rng.uniform(0.0, 2.0);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const auto f = PiecewiseLinear::from_knots(knots, slope);
    if (std::isfinite(f.zero_until())) ++with_prefix;
    expect_zero_prefix_holds(f);
    // An in-place rebuild over another curve's storage records the same.
    reused.assign(knots, slope);
    expect_same_bits(reused.zero_until(), f.zero_until());
  }
  EXPECT_GT(with_prefix, 100);
}

// ---------------------------------------------------------- pairwise sum

// The canonical tree of util/pairwise_sum.hpp, recursed all the way down.
double pairwise_oracle(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  const std::size_t h = xs.size() / 2;
  return pairwise_oracle(xs.first(h)) + pairwise_oracle(xs.subspan(h));
}

TEST(PairwiseSum, MatchesRecursiveOracleForEveryLength) {
  util::Rng rng(2024);
  std::vector<double> xs;
  for (std::size_t n = 0; n <= 1024; ++n) {
    // Mixed signs and magnitudes spanning 2^-40 .. 2^40, so a different
    // association changes the rounded result.
    xs.resize(n);
    for (double& x : xs)
      x = (rng.bernoulli(0.5) ? -1.0 : 1.0) *
          std::ldexp(rng.uniform(1.0, 2.0), int(rng.uniform_int(-40, 40)));
    SCOPED_TRACE(testing::Message() << "n " << n);
    expect_same_bits(util::pairwise_sum(xs), pairwise_oracle(xs));
  }
}

// The carry keeps what each rounded addition drops: a thousand terms of
// 2^-60 added to 1 give 1 + 1000 * 2^-60 rounded once, in either order,
// where a plain running sum drops every one of them and returns 1.0.
TEST(CompensatedSum, KeepsWhatARunningSumRoundsAway) {
  const double tiny = std::ldexp(1.0, -60);
  util::CompensatedSum front;
  util::CompensatedSum back;
  double plain = 1.0;
  front.add(1.0);
  for (int i = 0; i < 1000; ++i) {
    front.add(tiny);
    back.add(tiny);
    plain += tiny;
  }
  back.add(1.0);
  const double exact = 1.0 + 1000.0 * tiny;
  EXPECT_EQ(plain, 1.0);
  expect_same_bits(front.value(), exact);
  expect_same_bits(back.value(), exact);
  EXPECT_EQ(util::CompensatedSum{}.value(), 0.0);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, ParallelForCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ParallelForEmptyRange) {
  bool ran = false;
  util::parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, ParallelForPropagatesExceptions) {
  EXPECT_THROW(util::parallel_for(0, 100,
                                  [](std::size_t i) {
                                    if (i == 37) throw std::runtime_error("x");
                                  }),
               std::runtime_error);
}

TEST(Parallel, ThreadPoolRunsTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count++; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, SharedPoolIsLongLivedAndReused) {
  util::ThreadPool& first = util::shared_pool();
  EXPECT_GE(first.size(), 1u);
  // Back-to-back parallel_for calls must run on the same pool object, not
  // on freshly spawned threads.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    util::parallel_for(0, 64, [&](std::size_t) { count++; }, 4);
    EXPECT_EQ(count.load(), 64);
  }
  EXPECT_EQ(&util::shared_pool(), &first);
}

TEST(Parallel, NestedParallelForDoesNotDeadlock) {
  // A task running on the shared pool may itself call parallel_for; the
  // caller-participates design must make progress even when every pool
  // thread is busy.
  std::atomic<int> inner_total{0};
  util::parallel_for(
      0, 8,
      [&](std::size_t) {
        util::parallel_for(0, 8, [&](std::size_t) { inner_total++; }, 2);
      },
      4);
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(Parallel, ConcurrentParallelForCallsAreIsolated) {
  // Two threads issuing parallel_for at once share the pool but must each
  // observe only their own completion (per-call tracking, not wait_idle).
  std::atomic<int> a{0}, b{0};
  std::thread other(
      [&] { util::parallel_for(0, 500, [&](std::size_t) { b++; }, 3); });
  util::parallel_for(0, 500, [&](std::size_t) { a++; }, 3);
  other.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

TEST(Parallel, ThreadPoolRethrowsFromWait) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&] { count++; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

// ------------------------------------------------------------------ random

TEST(Random, DeterministicAcrossInstances) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Random, ParetoRespectsScale) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Random, UniformIntInRange) {
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

// ------------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumns) {
  util::Table t({"name", "value"});
  t.add_row({std::string("alpha"), 2.5});
  t.add_row({std::string("n"), (long long)42});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5000"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecials) {
  util::Table t({"x"});
  t.add_row({std::string("a,b\"c")});
  const std::string path = testing::TempDir() + "/pss_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, line;
  std::getline(in, header);
  std::getline(in, line);
  EXPECT_EQ(header, "x");
  EXPECT_EQ(line, "\"a,b\"\"c\"");
}

}  // namespace
}  // namespace pss
