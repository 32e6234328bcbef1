#include <gtest/gtest.h>

#include <cmath>

#include "opt/bisection.h"
#include "opt/coordinate_descent.h"
#include "opt/golden_section.h"

namespace so = subscale::opt;

// ---- golden section -----------------------------------------------------------

TEST(GoldenSection, FindsParabolaMinimum) {
  const auto f = [](double x) { return (x - 1.7) * (x - 1.7) + 0.3; };
  const auto m = so::golden_section_minimize(f, -10.0, 10.0, 1e-10);
  EXPECT_NEAR(m.x, 1.7, 1e-8);
  EXPECT_NEAR(m.value, 0.3, 1e-12);
}

TEST(GoldenSection, HandlesBoundaryMinimum) {
  const auto f = [](double x) { return x; };  // minimum at the left edge
  const auto m = so::golden_section_minimize(f, 2.0, 5.0, 1e-10);
  EXPECT_NEAR(m.x, 2.0, 1e-6);
}

TEST(GoldenSection, RejectsBadInterval) {
  const auto f = [](double x) { return x * x; };
  EXPECT_THROW(so::golden_section_minimize(f, 1.0, 0.0, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(so::golden_section_minimize(f, 0.0, 1.0, 0.0),
               std::invalid_argument);
}

TEST(ScanThenGolden, EscapesLocalMinimum) {
  // Two wells: local at x ~ -1 (value ~1), global at x ~ 2 (value ~0).
  const auto f = [](double x) {
    return std::min((x + 1.0) * (x + 1.0) + 1.0, (x - 2.0) * (x - 2.0));
  };
  const auto m = so::scan_then_golden(f, -5.0, 5.0, 41, 1e-9);
  EXPECT_NEAR(m.x, 2.0, 1e-6);
  EXPECT_NEAR(m.value, 0.0, 1e-10);
}

// ---- bisection ---------------------------------------------------------------------

TEST(Bisect, FindsSqrtTwo) {
  const auto f = [](double x) { return x * x - 2.0; };
  const auto r = so::bisect(f, 0.0, 2.0, 1e-12);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, RequiresSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(so::bisect(f, -1.0, 1.0, 1e-9), std::invalid_argument);
}

// ---- safeguarded Newton ---------------------------------------------------------

TEST(SafeguardedNewton, ConvergesQuadraticallyOnSmoothRoot) {
  std::size_t calls = 0;
  const auto f = [&](double x) {
    ++calls;
    return so::ValueSlope{x * x - 2.0, 2.0 * x};
  };
  const auto r = so::safeguarded_newton(f, 0.0, 2.0, 1e-13, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-13);
  EXPECT_EQ(r.f_at_x, r.x * r.x - 2.0);
  EXPECT_LE(r.iterations, 6u);  // bisection would need ~44
  EXPECT_EQ(calls, r.iterations + 2);  // plus the two endpoint checks
}

TEST(SafeguardedNewton, StepLeavingTheBracketBisectsInstead) {
  // atan's Newton step from x = 3 lands near -9.5, far outside [-1, 4];
  // unguarded Newton diverges from there.
  const auto f = [](double x) {
    return so::ValueSlope{std::atan(x), 1.0 / (1.0 + x * x)};
  };
  const auto r = so::safeguarded_newton(f, -1.0, 4.0, 1e-12, 3.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
}

TEST(SafeguardedNewton, NonPositiveSlopeFallsBackToBisection) {
  // The function is increasing but reports a zero, then a negative,
  // slope: every step must be a bisection step, which still converges.
  for (const double bad_slope : {0.0, -1.0}) {
    const auto f = [&](double x) {
      return so::ValueSlope{x - 0.3, bad_slope};
    };
    const auto r = so::safeguarded_newton(f, 0.0, 1.0, 1e-10, 0.9);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 0.3, 1e-10);
    EXPECT_GE(r.iterations, 30u);  // log2(1 / 1e-10) halvings
  }
}

TEST(SafeguardedNewton, UnderestimatedSlopeBisectsWhenStepsStopShrinking) {
  // A slope of 0.51 against the true 1 overshoots the root by 96 % of
  // the error every step, so pure in-bracket Newton oscillates and
  // contracts by only 0.96 per step. The progress rule bisects as soon
  // as a step is longer than half the step before last.
  const auto f = [](double x) { return so::ValueSlope{x - 0.3, 0.51}; };
  const auto r = so::safeguarded_newton(f, 0.0, 1.0, 1e-13, 0.5);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.3, 1e-13);
  EXPECT_LE(r.iterations, 60u);  // a pure bisection needs ~44
}

TEST(SafeguardedNewton, DecreasingFunctionUsesItsOrientation) {
  const auto f = [](double x) { return so::ValueSlope{1.0 - x * x, -2.0 * x}; };
  const auto r = so::safeguarded_newton(f, 0.0, 3.0, 1e-13, 2.5);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.0, 1e-13);
}

TEST(SafeguardedNewton, RootAtBracketEndReturnsTheEnd) {
  const auto f = [](double x) { return so::ValueSlope{x - 1.0, 1.0}; };
  const auto lo = so::safeguarded_newton(f, 1.0, 2.0, 1e-12, 1.5);
  EXPECT_TRUE(lo.converged);
  EXPECT_EQ(lo.x, 1.0);
  EXPECT_EQ(lo.iterations, 0u);
  const auto hi = so::safeguarded_newton(f, 0.0, 1.0, 1e-12, 0.5);
  EXPECT_TRUE(hi.converged);
  EXPECT_EQ(hi.x, 1.0);
}

TEST(SafeguardedNewton, RequiresSignChangeLikeBisect) {
  const auto f = [](double x) { return so::ValueSlope{x * x + 1.0, 2.0 * x}; };
  EXPECT_THROW(so::safeguarded_newton(f, -1.0, 1.0, 1e-9, 0.0),
               std::invalid_argument);
  EXPECT_THROW(so::safeguarded_newton(f, 1.0, -1.0, 1e-9, 0.0),
               std::invalid_argument);
}

TEST(SolveMonotoneLog, ExponentialTarget) {
  // f(x) = log10(x): solve f = 18 -> x = 1e18, across many decades.
  const auto f = [](double x) { return std::log10(x); };
  const auto r = so::solve_monotone_log(f, 18.0, 1e15, 1e12, 1e22);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x / 1e18, 1.0, 1e-6);
}

TEST(SolveMonotoneLog, DecreasingFunction) {
  const auto f = [](double x) { return 1.0 / x; };
  const auto r = so::solve_monotone_log(f, 0.25, 1.0, 1e-3, 1e3);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 4.0, 1e-6);
}

TEST(SolveMonotoneLog, UnreachableTargetReportsNotConverged) {
  const auto f = [](double x) { return std::tanh(x); };  // bounded by 1
  const auto r = so::solve_monotone_log(f, 5.0, 1.0, 1e-3, 1e3);
  EXPECT_FALSE(r.converged);
}

// ---- coordinate descent ---------------------------------------------------------------

TEST(CoordinateDescent, QuadraticBowl) {
  const auto f = [](const std::vector<double>& v) {
    const double dx = v[0] - 0.3;
    const double dy = v[1] + 0.6;
    return dx * dx + 2.0 * dy * dy + 1.0;
  };
  const auto r = so::coordinate_descent(
      f, {0.0, 0.0}, {{.lo = -2.0, .hi = 2.0}, {.lo = -2.0, .hi = 2.0}});
  EXPECT_NEAR(r.x[0], 0.3, 1e-4);
  EXPECT_NEAR(r.x[1], -0.6, 1e-4);
  EXPECT_NEAR(r.value, 1.0, 1e-7);
}

TEST(CoordinateDescent, CorrelatedQuadraticConverges) {
  // Mildly correlated quadratic (coordinate descent still converges).
  const auto f = [](const std::vector<double>& v) {
    const double x = v[0], y = v[1];
    return x * x + y * y + 0.8 * x * y - x - y;
  };
  const auto r = so::coordinate_descent(
      f, {0.0, 0.0}, {{.lo = -5.0, .hi = 5.0}, {.lo = -5.0, .hi = 5.0}},
      {.sweeps = 40});
  // Analytic minimum of x^2+y^2+0.8xy-x-y: x = y = 1/2.8.
  EXPECT_NEAR(r.x[0], 1.0 / 2.8, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0 / 2.8, 1e-3);
}

TEST(CoordinateDescent, ClampsStartIntoBox) {
  const auto f = [](const std::vector<double>& v) { return v[0] * v[0]; };
  const auto r =
      so::coordinate_descent(f, {100.0}, {{.lo = -1.0, .hi = 1.0}});
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
}

TEST(CoordinateDescent, RejectsMismatchedSizes) {
  const auto f = [](const std::vector<double>& v) { return v[0]; };
  EXPECT_THROW(
      so::coordinate_descent(f, {0.0, 0.0}, {{.lo = 0.0, .hi = 1.0}}),
      std::invalid_argument);
}
