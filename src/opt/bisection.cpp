#include "opt/bisection.h"

#include <cmath>
#include <stdexcept>

namespace subscale::opt {

RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  double x_tolerance, std::size_t max_iterations) {
  if (hi <= lo) throw std::invalid_argument("bisect: hi <= lo");
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return {.x = lo, .f_at_x = 0.0, .converged = true};
  if (fhi == 0.0) return {.x = hi, .f_at_x = 0.0, .converged = true};
  if (flo * fhi > 0.0) {
    throw std::invalid_argument("bisect: no sign change on [lo, hi]");
  }
  RootResult result;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    result.iterations = it + 1;
    if (fmid == 0.0 || hi - lo < x_tolerance) {
      result.x = mid;
      result.f_at_x = fmid;
      result.converged = true;
      return result;
    }
    if (flo * fmid < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  result.x = 0.5 * (lo + hi);
  result.f_at_x = f(result.x);
  result.converged = hi - lo < x_tolerance;
  return result;
}

RootResult safeguarded_newton(const std::function<ValueSlope(double)>& f,
                              double lo, double hi, double x_tolerance,
                              double guess) {
  // Only caps a loop that cannot reach its tolerance: the circuit solves
  // take about 7 steps, a pure bisection to 1e-13 of the bracket 43.
  constexpr std::size_t kMaxIterations = 200;
  if (hi <= lo) throw std::invalid_argument("safeguarded_newton: hi <= lo");
  const double flo = f(lo).value;
  if (flo == 0.0) return {.x = lo, .f_at_x = 0.0, .converged = true};
  const double fhi = f(hi).value;
  if (fhi == 0.0) return {.x = hi, .f_at_x = 0.0, .converged = true};
  if (flo * fhi > 0.0) {
    throw std::invalid_argument(
        "safeguarded_newton: no sign change on [lo, hi]");
  }
  const double orientation = flo < 0.0 ? 1.0 : -1.0;  // sign of f's slope
  double x = guess > lo && guess < hi ? guess : 0.5 * (lo + hi);
  // Lengths of the last step and the one before it (rtsafe's dx and
  // dxold), both starting at the bracket width.
  double last_step = hi - lo;
  double step_before_last = last_step;
  RootResult result;
  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    const ValueSlope fx = f(x);
    result = {.x = x, .f_at_x = fx.value, .iterations = it + 1};
    if (fx.value == 0.0) {
      result.converged = true;
      return result;
    }
    if (orientation * fx.value < 0.0) {
      lo = x;
    } else {
      hi = x;
    }
    double next = 0.5 * (lo + hi);
    bool newton_step = false;
    if (orientation * fx.slope > 0.0) {
      const double newton = x - fx.value / fx.slope;
      // The progress rule: a step longer than half the step before last
      // is not converging fast enough (a slope well below the true one
      // oscillates around the root), so bisect instead.
      newton_step = newton > lo && newton < hi &&
                    std::abs(newton - x) <= 0.5 * step_before_last;
      if (newton_step) next = newton;
    }
    if (hi - lo < x_tolerance ||
        (newton_step && std::abs(next - x) < x_tolerance)) {
      result.converged = true;
      return result;
    }
    step_before_last = last_step;
    last_step = std::abs(next - x);
    x = next;
  }
  return result;
}

RootResult solve_monotone_log(const std::function<double(double)>& f,
                              double target, double seed, double lo_limit,
                              double hi_limit, double rel_tolerance,
                              std::size_t max_iterations) {
  if (seed <= 0.0 || lo_limit <= 0.0 || hi_limit <= lo_limit) {
    throw std::invalid_argument("solve_monotone_log: bad domain");
  }
  const auto g = [&](double log_x) { return f(std::exp(log_x)) - target; };

  // Establish direction from two probes.
  double x0 = std::clamp(seed, lo_limit, hi_limit);
  double lx = std::log(x0);
  const double l_lo = std::log(lo_limit);
  const double l_hi = std::log(hi_limit);

  // Expand a bracket geometrically around the seed.
  double a = lx;
  double b = lx;
  double ga = g(a);
  double gb = ga;
  double step = 0.3;  // ~35 % per expansion
  std::size_t guard = 0;
  while (ga * gb > 0.0 && guard++ < 100) {
    a = std::max(l_lo, a - step);
    b = std::min(l_hi, b + step);
    ga = g(a);
    gb = g(b);
    step *= 1.6;
    if (a == l_lo && b == l_hi && ga * gb > 0.0) {
      // Target unreachable: return the closer endpoint, not converged.
      RootResult r;
      r.x = std::abs(ga) < std::abs(gb) ? std::exp(a) : std::exp(b);
      r.f_at_x = f(r.x) - target;
      r.converged = false;
      return r;
    }
  }
  RootResult inner =
      bisect(g, a, b, rel_tolerance, max_iterations);
  inner.x = std::exp(inner.x);
  inner.f_at_x = f(inner.x) - target;
  return inner;
}

}  // namespace subscale::opt
