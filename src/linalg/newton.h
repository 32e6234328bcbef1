#pragma once

/// \file newton.h
/// Damped Newton driver for dense nonlinear systems F(x) = 0, used by the
/// circuit engine (nodal analysis) and available to any module that can
/// evaluate its residual together with an analytic Jacobian.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/dense.h"

namespace subscale::linalg {

struct NewtonOptions {
  std::size_t max_iterations = 200;
  double residual_tolerance = 1e-12;  ///< on ||F||_inf
  double step_tolerance = 1e-12;      ///< on ||dx||_inf
  double max_step = 0.0;  ///< if > 0, clamp each component of dx to +-max_step
  std::size_t max_line_search_halvings = 30;
};

struct NewtonResult {
  std::size_t iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Everything one Newton solve of an n-unknown system works in: the
/// residual and Jacobian at the iterate and at a line-search trial, the
/// trial point, the step and its right-hand side, and the LU pivots.
/// Sized once; a solve in it allocates nothing.
struct NewtonWorkspace {
  explicit NewtonWorkspace(std::size_t n)
      : f(n), f_trial(n), x_trial(n), dx(n), rhs(n), jac(n, n),
        jac_trial(n, n), perm(n) {}

  std::vector<double> f;
  std::vector<double> f_trial;
  std::vector<double> x_trial;
  std::vector<double> dx;
  std::vector<double> rhs;
  DenseMatrix jac;
  DenseMatrix jac_trial;
  std::vector<std::size_t> perm;
};

/// Solve F(x) = 0 in place from the guess in `x` (size ws.f.size()), with
/// damped Newton + backtracking on ||F||_inf. `system(x, f, jac)`
/// overwrites f with F(x) and every entry of jac with dF/dx at x. Every
/// evaluation, line-search trials included, carries its Jacobian, so an
/// accepted step needs no further evaluation. On return `x` holds the
/// last iterate.
template <typename System>
NewtonResult newton_solve(System&& system, std::vector<double>& x,
                          NewtonWorkspace& ws,
                          const NewtonOptions& options = {}) {
  const std::size_t n = x.size();
  NewtonResult result;
  system(x, ws.f, ws.jac);
  double f_norm = norm_inf(ws.f);

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it;
    result.residual_norm = f_norm;
    if (f_norm <= options.residual_tolerance) {
      result.converged = true;
      return result;
    }

    for (std::size_t i = 0; i < n; ++i) ws.rhs[i] = -ws.f[i];
    if (!lu_factor_in_place(ws.jac, ws.perm)) {
      return result;  // singular Jacobian: report non-convergence
    }
    lu_solve(ws.jac, ws.perm, ws.rhs, ws.dx);

    if (options.max_step > 0.0) {
      for (double& d : ws.dx) {
        d = std::clamp(d, -options.max_step, options.max_step);
      }
    }

    const double dx_norm = norm_inf(ws.dx);
    if (dx_norm <= options.step_tolerance) {
      // Step has collapsed: accept if residual is small-ish.
      result.converged = f_norm <= 1e3 * options.residual_tolerance;
      return result;
    }

    // Backtracking line search on ||F||_inf.
    double lambda = 1.0;
    bool accepted = false;
    for (std::size_t ls = 0; ls <= options.max_line_search_halvings; ++ls) {
      for (std::size_t i = 0; i < n; ++i) {
        ws.x_trial[i] = x[i] + lambda * ws.dx[i];
      }
      system(ws.x_trial, ws.f_trial, ws.jac_trial);
      const double f_trial_norm = norm_inf(ws.f_trial);
      if (std::isfinite(f_trial_norm) && f_trial_norm < f_norm) {
        std::copy(ws.x_trial.begin(), ws.x_trial.end(), x.begin());
        std::swap(ws.f, ws.f_trial);
        std::swap(ws.jac, ws.jac_trial);
        f_norm = f_trial_norm;
        accepted = true;
        break;
      }
      lambda *= 0.5;
    }
    if (!accepted) {
      // Take the smallest step anyway; some circuit residuals have flat
      // plateaus where the norm briefly stalls.
      for (std::size_t i = 0; i < n; ++i) x[i] += lambda * ws.dx[i];
      system(x, ws.f, ws.jac);
      const double fn = norm_inf(ws.f);
      if (!std::isfinite(fn) || fn > 10.0 * f_norm) {
        return result;  // diverging; bail out
      }
      f_norm = fn;
    }
  }
  result.residual_norm = f_norm;
  result.converged = f_norm <= options.residual_tolerance;
  return result;
}

}  // namespace subscale::linalg
