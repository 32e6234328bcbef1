#pragma once

/// \file bisection.h
/// Root bracketing, bisection and safeguarded Newton for monotone
/// equations (leakage targets, V_th targets, V_min brackets, circuit
/// node balances).

#include <functional>

namespace subscale::opt {

struct RootResult {
  double x = 0.0;
  double f_at_x = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Find x in [lo, hi] with f(x) = 0 by bisection. Requires sign change
/// f(lo)*f(hi) <= 0 (throws std::invalid_argument otherwise).
RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  double x_tolerance, std::size_t max_iterations = 200);

/// A function value and its derivative at one point.
struct ValueSlope {
  double value = 0.0;
  double slope = 0.0;
};

/// Find x in [lo, hi] with f(x) = 0 for f monotone on the bracket:
/// Newton steps from `guess` (the midpoint when outside the bracket),
/// safeguarded by bisection. Requires a sign change like bisect (throws
/// std::invalid_argument otherwise) and returns an endpoint where f is
/// exactly zero. Each iterate shrinks the bracket; a Newton step that
/// would leave it, a slope whose sign disagrees with the bracket's
/// orientation (zero included), or a step longer than half the step
/// before last (rtsafe's progress rule) is replaced by a bisection
/// step. Stops when the bracket is narrower than `x_tolerance` or the
/// next Newton step is shorter; `x` is the last evaluated iterate and
/// `iterations` counts those interior evaluations (not the two endpoint
/// ones).
RootResult safeguarded_newton(const std::function<ValueSlope(double)>& f,
                              double lo, double hi, double x_tolerance,
                              double guess);

/// Solve f(x) = target for monotonically increasing or decreasing f on a
/// log-spaced positive domain (useful for doping searches spanning
/// decades). Brackets by geometric expansion from `seed` then bisects in
/// log space.
RootResult solve_monotone_log(const std::function<double(double)>& f,
                              double target, double seed, double lo_limit,
                              double hi_limit, double rel_tolerance = 1e-10,
                              std::size_t max_iterations = 400);

}  // namespace subscale::opt
