#include "tcad/mesh_continuation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/names.h"
#include "obs/profiler.h"

namespace subscale::tcad {

namespace {

/// Per-fine-tick interpolation stencil along one axis: the prolonged
/// value is (1 - w) * coarse[i0] + w * coarse[i0 + 1], with w in [0, 1]
/// (edge ticks clamp, so the combination is always convex).
struct Bracket {
  std::size_t i0 = 0;
  double w = 0.0;
};

std::vector<Bracket> brackets_1d(const mesh::Grid1d& coarse,
                                 const mesh::Grid1d& fine) {
  const std::size_t nc = coarse.size();
  std::vector<Bracket> out(fine.size());
  for (std::size_t i = 0; i < fine.size(); ++i) {
    const double xf = fine[i];
    if (nc < 2 || xf <= coarse[0]) {
      out[i] = {0, 0.0};
      continue;
    }
    if (xf >= coarse[nc - 1]) {
      out[i] = {nc - 2, 1.0};
      continue;
    }
    std::size_t lo = 0;
    std::size_t hi = nc - 1;
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      (coarse[mid] <= xf ? lo : hi) = mid;
    }
    const double span = coarse[lo + 1] - coarse[lo];
    out[i] = {lo, span > 0.0 ? (xf - coarse[lo]) / span : 0.0};
  }
  return out;
}

std::vector<double> prolong_with(const mesh::TensorMesh2d& coarse,
                                 const mesh::TensorMesh2d& fine,
                                 const std::vector<double>& field) {
  const std::vector<Bracket> bx = brackets_1d(coarse.x_grid(), fine.x_grid());
  const std::vector<Bracket> by = brackets_1d(coarse.y_grid(), fine.y_grid());
  std::vector<double> out(fine.node_count());
  for (std::size_t j = 0; j < fine.ny(); ++j) {
    const Bracket& yb = by[j];
    for (std::size_t i = 0; i < fine.nx(); ++i) {
      const Bracket& xb = bx[i];
      const double f00 = field[coarse.index(xb.i0, yb.i0)];
      const double f10 = field[coarse.index(xb.i0 + 1, yb.i0)];
      const double f01 = field[coarse.index(xb.i0, yb.i0 + 1)];
      const double f11 = field[coarse.index(xb.i0 + 1, yb.i0 + 1)];
      const double lo = f00 + xb.w * (f10 - f00);
      const double hi = f01 + xb.w * (f11 - f01);
      out[fine.index(i, j)] = lo + yb.w * (hi - lo);
    }
  }
  return out;
}

}  // namespace

std::vector<double> prolong_bilinear(const mesh::TensorMesh2d& coarse,
                                     const mesh::TensorMesh2d& fine,
                                     const std::vector<double>& field) {
  return prolong_with(coarse, fine, field);
}

std::vector<double> prolong_log_density(const mesh::TensorMesh2d& coarse,
                                        const mesh::TensorMesh2d& fine,
                                        const std::vector<double>& density,
                                        double floor) {
  std::vector<double> logd(density.size());
  for (std::size_t i = 0; i < density.size(); ++i) {
    logd[i] = std::log(std::max(density[i], floor));
  }
  std::vector<double> out = prolong_with(coarse, fine, logd);
  for (double& v : out) v = std::exp(v);
  return out;
}

MeshContinuation::MeshContinuation(const compact::DeviceSpec& spec,
                                   const MeshOptions& fine_mesh,
                                   const GummelOptions& options,
                                   const exec::RunContext& ctx) {
  if (obs::MetricsRegistry* sink = ctx.sink(); sink != nullptr) {
    namespace names = obs::names;
    levels_counter_ = &sink->counter(names::kMeshContLevels);
    prolongations_counter_ = &sink->counter(names::kMeshContProlongations);
    fallbacks_counter_ = &sink->counter(names::kMeshContFallbacks);
  }
  prof_ = ctx.span_sink();

  GummelOptions coarse = options;
  coarse.mesh_continuation_levels = 0;
  // A guess does not need the fine deck's convergence depth: the fine
  // solve re-converges to ITS OWN fixed point under ITS OWN tolerances
  // regardless of seed quality (the equivalence tier pins that), so the
  // ladder stops at seed accuracy (~1e-5 V) and strides the bias ramp
  // twice as fast. With an outer contraction of ~0.9 near the stiff
  // full-vdd corner this is most of the coarse-cascade wall time.
  coarse.psi_tolerance = std::max(options.psi_tolerance, 1e-5);
  coarse.poisson.update_tolerance =
      std::max(options.poisson.update_tolerance, 1e-7);
  coarse.bias_step = std::max(options.bias_step, 2.0 * options.bias_step);
  if (options.fault.coarse_only) {
    coarse.fault.coarse_only = false;  // arm it down here instead
  } else {
    coarse.fault = FaultInjection{};  // fine-solver faults stay fine-only
  }
  exec::RunContext coarse_ctx = ctx;
  coarse_ctx.convergence = nullptr;  // trajectories describe fine solves

  const std::size_t n_levels = options.mesh_continuation_levels;
  for (std::size_t lvl = n_levels; lvl >= 1; --lvl) {
    const double scale = static_cast<double>(std::size_t{1} << lvl);
    MeshOptions mo = fine_mesh;
    mo.surface_spacing *= scale;
    mo.junction_spacing *= scale;
    // Graded meshes put ~log(span/h0)/log(ratio) ticks in each region,
    // so scaling the seed spacings alone barely coarsens them — the
    // grading ratio must stretch too or every "coarse" level costs
    // nearly as much as the fine mesh per iteration.
    mo.grading_ratio = 1.0 + (mo.grading_ratio - 1.0) * scale;
    mo.oxide_layers = std::max<std::size_t>(
        1, mo.oxide_layers / static_cast<std::size_t>(scale));
    Level level;
    level.dev = std::make_unique<DeviceStructure>(
        make_device_structure(spec, mo));
    level.solver = std::make_unique<DriftDiffusionSolver>(*level.dev, coarse,
                                                          coarse_ctx);
    levels_.push_back(std::move(level));
  }
}

void MeshContinuation::prolong_state(std::size_t from_level,
                                     const DeviceStructure& to,
                                     std::vector<double>& psi,
                                     std::vector<double>& n,
                                     std::vector<double>& p) {
  const obs::ScopedSpan span(prof_, obs::names::spans::kMeshContProlong);
  const DriftDiffusionSolver& solver = *levels_[from_level].solver;
  const mesh::TensorMesh2d& cm = levels_[from_level].dev->mesh();
  const double floor = 1e-20 * to.ni();
  psi = prolong_bilinear(cm, to.mesh(), solver.psi());
  n = prolong_log_density(cm, to.mesh(), solver.electron_density(), floor);
  p = prolong_log_density(cm, to.mesh(), solver.hole_density(), floor);
  // Carriers live in silicon only; interpolation across the material
  // boundary may have smeared the oxide floor into these entries.
  for (std::size_t idx = 0; idx < to.mesh().node_count(); ++idx) {
    if (!to.is_silicon(idx)) {
      n[idx] = 0.0;
      p[idx] = 0.0;
    }
  }
  if (prolongations_counter_ != nullptr) prolongations_counter_->add(1);
}

bool MeshContinuation::ensure_equilibrium() {
  if (equilibrium_attempted_) return equilibrium_ok_;
  equilibrium_attempted_ = true;
  const obs::ScopedSpan span(prof_, obs::names::spans::kMeshContCoarse);
  try {
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      if (levels_counter_ != nullptr) levels_counter_->add(1);
      if (k == 0) {
        levels_[k].solver->solve_equilibrium();
      } else {
        std::vector<double> psi;
        std::vector<double> n;
        std::vector<double> p;
        prolong_state(k - 1, *levels_[k].dev, psi, n, p);
        levels_[k].solver->solve_equilibrium_with_guess(psi, n, p);
      }
    }
    equilibrium_ok_ = true;
  } catch (const SolverError&) {
    if (fallbacks_counter_ != nullptr) fallbacks_counter_->add(1);
    equilibrium_ok_ = false;
  }
  return equilibrium_ok_;
}

bool MeshContinuation::equilibrium_guess(const DeviceStructure& fine,
                                         std::vector<double>& psi,
                                         std::vector<double>& n,
                                         std::vector<double>& p) {
  if (levels_.empty() || !ensure_equilibrium()) return false;
  prolong_state(levels_.size() - 1, fine, psi, n, p);
  return true;
}

bool MeshContinuation::bias_guess(double vg, double vd, double vs, double vb,
                                  const DeviceStructure& fine,
                                  std::vector<double>& psi,
                                  std::vector<double>& n,
                                  std::vector<double>& p) {
  if (levels_.empty() || !ensure_equilibrium()) return false;
  const obs::ScopedSpan span(prof_, obs::names::spans::kMeshContCoarse);
  try {
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      if (levels_counter_ != nullptr) levels_counter_->add(1);
      const SolverReport* report = nullptr;
      if (k == 0) {
        report = &levels_[k].solver->try_solve_bias(vg, vd, vs, vb);
      } else {
        std::vector<double> gp;
        std::vector<double> gn;
        std::vector<double> gpp;
        prolong_state(k - 1, *levels_[k].dev, gp, gn, gpp);
        report = &levels_[k].solver->try_solve_bias_seeded(vg, vd, vs, vb,
                                                           gp, gn, gpp);
      }
      if (!report->converged) {
        if (fallbacks_counter_ != nullptr) fallbacks_counter_->add(1);
        return false;
      }
    }
  } catch (const SolverError&) {
    if (fallbacks_counter_ != nullptr) fallbacks_counter_->add(1);
    return false;
  }
  prolong_state(levels_.size() - 1, fine, psi, n, p);
  return true;
}

}  // namespace subscale::tcad
