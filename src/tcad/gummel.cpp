#include "tcad/gummel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/names.h"
#include "physics/fermi.h"

namespace subscale::tcad {

void GummelOptions::validate() const {
  const auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("GummelOptions: ") + msg);
  };
  if (max_iterations == 0) fail("max_iterations must be positive");
  if (!(psi_tolerance > 0.0)) fail("psi_tolerance must be > 0");
  if (!(bias_step > 0.0)) {
    fail("bias_step must be > 0 (a zero or negative continuation step "
         "would ramp forever without reaching the target bias)");
  }
  if (bias_step < kMinBiasStep) {
    fail("bias_step must not be below the continuation-step floor "
         "kMinBiasStep");
  }
  if (!(poisson.update_tolerance > 0.0)) {
    fail("poisson.update_tolerance must be > 0");
  }
  if (mesh_continuation_levels > 4) {
    fail("mesh_continuation_levels must be <= 4 (each level halves the "
         "mesh resolution; beyond 4 the coarse device no longer "
         "resembles the fine one)");
  }
  if (fault.stage != SolveStage::kNone) {
    if (fault.count < 0) fail("fault.count must be >= 0");
    if (fault.min_bias < 0.0) fail("fault.min_bias must be >= 0");
    if (!(fault.max_bias > fault.min_bias)) {
      fail("fault bias window is empty (max_bias <= min_bias)");
    }
  }
}

DriftDiffusionSolver::DriftDiffusionSolver(const DeviceStructure& dev,
                                           const GummelOptions& options,
                                           const exec::RunContext& ctx)
    : dev_(dev),
      options_(options),
      prof_(ctx.span_sink()),
      recorder_(ctx.convergence) {
  options_.validate();
  ctx.validate();
  if (obs::MetricsRegistry* sink = ctx.sink(); sink != nullptr) {
    namespace names = obs::names;
    ins_.solves = &sink->counter(names::kGummelSolves);
    ins_.outer_iterations = &sink->counter(names::kGummelOuterIterations);
    ins_.continuation_steps =
        &sink->counter(names::kGummelContinuationSteps);
    ins_.retries = &sink->counter(names::kGummelRetries);
    ins_.step_halvings = &sink->counter(names::kGummelStepHalvings);
    ins_.damping_tightenings =
        &sink->counter(names::kGummelDampingTightenings);
    ins_.rollbacks = &sink->counter(names::kGummelRollbacks);
    ins_.faults_injected = &sink->counter(names::kGummelFaultsInjected);
    ins_.failed_solves = &sink->counter(names::kGummelFailedSolves);
    ins_.poisson_newton_iterations =
        &sink->counter(names::kPoissonNewtonIterations);
    ins_.poisson_factorizations =
        &sink->counter(names::kPoissonFactorizations);
    ins_.continuity_solves = &sink->counter(names::kContinuitySolves);
    ins_.continuity_clamped_nodes =
        &sink->counter(names::kContinuityClampedNodes);
    ins_.band_entries = &sink->counter(names::kLinalgBandEntries);
    ins_.last_residual = &sink->gauge(names::kGummelLastResidual);
    ins_.iterations_per_solve = &sink->histogram(
        names::kGummelIterationsPerSolve, obs::buckets::kIterations);
  }
  // A coarse_only fault never arms in the solver holding it — mesh
  // continuation re-arms it (with the flag cleared) inside the coarse
  // level solvers it builds.
  fault_budget_ =
      options_.fault.stage == SolveStage::kNone || options_.fault.coarse_only
          ? 0
          : options_.fault.count;
  const std::size_t n_nodes = dev_.mesh().node_count();
  state_.psi.assign(n_nodes, 0.0);
  state_.n.assign(n_nodes, 0.0);
  state_.p.assign(n_nodes, 0.0);
}

bool DriftDiffusionSolver::fault_fires(SolveStage stage,
                                       std::size_t iteration,
                                       const BiasPoint& bias) {
  const FaultInjection& f = options_.fault;
  if (f.stage != stage || fault_budget_ <= 0) return false;
  if (iteration < f.at_iteration) return false;
  const double v = std::abs(bias.vg);
  if (v < f.min_bias || v >= f.max_bias) return false;
  --fault_budget_;
  if (ins_.faults_injected != nullptr) ins_.faults_injected->add(1);
  return true;
}

namespace {

/// True when the state holds one finite psi, n and p per mesh node: the
/// check every externally supplied state (a cache restore or a seed)
/// must pass before the solver takes it.
bool fits_mesh(std::size_t n_nodes, const State& s) {
  if (s.psi.size() != n_nodes || s.n.size() != n_nodes ||
      s.p.size() != n_nodes) {
    return false;
  }
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!std::isfinite(s.psi[idx]) || !std::isfinite(s.n[idx]) ||
        !std::isfinite(s.p[idx])) {
      return false;
    }
  }
  return true;
}

}  // namespace

const SolverReport& DriftDiffusionSolver::solve_equilibrium(
    const State* guess) {
  const std::size_t n_nodes = dev_.mesh().node_count();
  if (guess != nullptr && fits_mesh(n_nodes, *guess)) {
    const obs::ScopedSpan span(prof_,
                               obs::names::spans::kGummelEquilibrium);
    bias_ = BiasPoint{};
    report_ = SolverReport{};
    report_.target = bias_;
    state_ = *guess;
    const GummelOutcome out = gummel_at(bias_, kInitialDamping);
    report_.total_gummel_iterations = out.iterations;
    report_.final_residual = out.residual;
    report_.final_damping = kInitialDamping;
    if (out.status == SolveStatus::kConverged) {
      solved_ = true;
      report_.seed_used = true;
      return report_;
    }
    // The ladder below rebuilds its own neutral guess, so a failed seed
    // costs nothing but the attempt.
  }

  const obs::ScopedSpan span(prof_,
                             obs::names::spans::kGummelEquilibrium);
  const double ni = dev_.ni();
  const double vt = dev_.vt();
  std::vector<double>& psi = state_.psi;
  std::vector<double>& n = state_.n;
  std::vector<double>& p = state_.p;

  // Charge-neutral initial guess; carriers at their neutral values.
  const auto neutral_guess = [&] {
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (dev_.is_silicon(idx)) {
        psi[idx] = physics::neutral_potential(dev_.net_doping()[idx], ni, vt);
        n[idx] = boltzmann_n(psi[idx], 0.0, ni, vt);
        p[idx] = boltzmann_p(psi[idx], 0.0, ni, vt);
      } else {
        psi[idx] = 0.0;
        n[idx] = 0.0;
        p[idx] = 0.0;
      }
    }
  };
  bias_ = BiasPoint{};
  report_ = SolverReport{};
  report_.target = bias_;

  double damping = kInitialDamping;
  while (true) {
    neutral_guess();
    const GummelOutcome out = gummel_at(bias_, damping);
    report_.total_gummel_iterations += out.iterations;
    report_.final_residual = out.residual;
    report_.final_damping = damping;
    if (out.status == SolveStatus::kConverged) {
      solved_ = true;
      return report_;
    }
    ++report_.retries;
    if (ins_.retries != nullptr) ins_.retries->add(1);
    report_.failures.push_back({bias_, out.stage, out.status,
                                out.iterations, out.stage_iterations,
                                out.residual, 0.0, damping});
    if (damping > kMinDamping) {
      damping = std::max(kMinDamping, kRetryDamping * damping);
      if (ins_.damping_tightenings != nullptr) {
        ins_.damping_tightenings->add(1);
      }
      continue;
    }
    report_.converged = false;
    report_.failed_stage = out.stage;
    report_.status = out.status;
    report_.failed_at = bias_;
    if (ins_.failed_solves != nullptr) ins_.failed_solves->add(1);
    throw SolverError(report_);
  }
}

bool DriftDiffusionSolver::adopt_state(const BiasPoint& bias, State state) {
  if (!fits_mesh(dev_.mesh().node_count(), state)) return false;
  state_ = std::move(state);
  bias_ = bias;
  solved_ = true;
  report_ = SolverReport{};
  report_.target = bias_;
  return true;
}

const SolverReport& DriftDiffusionSolver::try_solve_bias(
    const BiasPoint& target, const State* seed) {
  if (!solved_) solve_equilibrium();
  if (seed != nullptr && fits_mesh(dev_.mesh().node_count(), *seed)) {
    const obs::ScopedSpan span(prof_, obs::names::spans::kGummelBiasRamp);
    const State snap = state_;
    state_ = *seed;
    report_ = SolverReport{};
    report_.target = target;
    const GummelOutcome out = gummel_at(target, kInitialDamping);
    report_.total_gummel_iterations = out.iterations;
    report_.final_residual = out.residual;
    report_.final_bias_step = options_.bias_step;
    report_.final_damping = kInitialDamping;
    if (out.status == SolveStatus::kConverged) {
      bias_ = target;
      report_.continuation_steps = 1;
      report_.seed_used = true;
      if (ins_.continuation_steps != nullptr) ins_.continuation_steps->add(1);
      return report_;
    }
    state_ = snap;
    if (ins_.rollbacks != nullptr) ins_.rollbacks->add(1);
  }

  const obs::ScopedSpan span(prof_, obs::names::spans::kGummelBiasRamp);
  report_ = SolverReport{};
  report_.target = target;

  // Adaptive continuation: ramp the gate and drain toward the target
  // in bounded steps. A step that fails is rolled back to the last-good
  // state and retried with a halved step, then with tightened
  // under-relaxation; when both knobs hit their floors we give up and
  // leave the solver at the last converged bias point.
  double step = options_.bias_step;
  double damping = kInitialDamping;
  while (true) {
    const double max_gap = std::max(std::abs(target.vg - bias_.vg),
                                    std::abs(target.vd - bias_.vd));
    if (max_gap == 0.0) break;
    if (report_.continuation_steps >= kMaxContinuationSteps) {
      report_.converged = false;
      report_.failed_stage = SolveStage::kGummel;
      report_.status = SolveStatus::kStalled;
      report_.failed_at = bias_;
      if (ins_.failed_solves != nullptr) ins_.failed_solves->add(1);
      break;
    }
    const double frac = std::min(1.0, step / max_gap);
    const BiasPoint trial{bias_.vg + frac * (target.vg - bias_.vg),
                          bias_.vd + frac * (target.vd - bias_.vd)};

    const State snap = state_;
    const GummelOutcome out = gummel_at(trial, damping);
    report_.total_gummel_iterations += out.iterations;
    report_.final_residual = out.residual;
    if (out.status == SolveStatus::kConverged) {
      bias_ = trial;
      ++report_.continuation_steps;
      if (ins_.continuation_steps != nullptr) {
        ins_.continuation_steps->add(1);
      }
      // Recover the step length once the hard region is behind us.
      step = std::min(options_.bias_step, 2.0 * step);
      continue;
    }

    state_ = snap;
    ++report_.retries;
    if (ins_.rollbacks != nullptr) ins_.rollbacks->add(1);
    if (ins_.retries != nullptr) ins_.retries->add(1);
    report_.failures.push_back({trial, out.stage, out.status, out.iterations,
                                out.stage_iterations, out.residual, step,
                                damping});
    if (step > kMinBiasStep) {
      step = std::max(kMinBiasStep, 0.5 * step);
      if (ins_.step_halvings != nullptr) ins_.step_halvings->add(1);
    } else if (damping > kMinDamping) {
      damping = std::max(kMinDamping, kRetryDamping * damping);
      if (ins_.damping_tightenings != nullptr) {
        ins_.damping_tightenings->add(1);
      }
    } else {
      report_.converged = false;
      report_.failed_stage = out.stage;
      report_.status = out.status;
      report_.failed_at = trial;
      if (ins_.failed_solves != nullptr) ins_.failed_solves->add(1);
      break;
    }
  }
  report_.final_bias_step = step;
  report_.final_damping = damping;
  return report_;
}

DriftDiffusionSolver::GummelOutcome DriftDiffusionSolver::gummel_at(
    const BiasPoint& bias, double damping) {
  const obs::ScopedSpan span(prof_, obs::names::spans::kGummelSolve);
  // Each solve starts without a held Poisson factor, so its answer
  // depends only on its starting state and its bias: a state restored
  // from the cache continues exactly as the cold one it came from.
  poisson_workspace_.drop_factor();
  obs::SolveTrajectory trajectory;
  obs::SolveTrajectory* traj_ptr = nullptr;
  if (recorder_ != nullptr) {
    trajectory.vg = bias.vg;
    trajectory.vd = bias.vd;
    traj_ptr = &trajectory;
  }
  const GummelOutcome out = gummel_at_impl(bias, damping, traj_ptr);
  if (traj_ptr != nullptr) {
    trajectory.converged = out.status == SolveStatus::kConverged;
    recorder_->commit(std::move(trajectory));
  }
  if (ins_.solves != nullptr) {
    ins_.solves->add(1);
    ins_.outer_iterations->add(out.iterations);
    ins_.last_residual->set(out.residual);
    ins_.iterations_per_solve->record(static_cast<double>(out.iterations));
  }
  return out;
}

DriftDiffusionSolver::GummelOutcome DriftDiffusionSolver::gummel_at_impl(
    const BiasPoint& bias, double damping, obs::SolveTrajectory* trajectory) {
  const auto& m = dev_.mesh();
  const std::size_t n_nodes = m.node_count();
  const double ni = dev_.ni();
  const double vt = dev_.vt();

  std::vector<double>& psi = state_.psi;
  std::vector<double>& n = state_.n;
  std::vector<double>& p = state_.p;

  std::vector<double> phi_n(n_nodes, 0.0);
  std::vector<double> phi_p(n_nodes, 0.0);
  std::vector<double> psi_prev(n_nodes, 0.0);

  double dpsi = 0.0;
  for (std::size_t it = 0; it < options_.max_iterations; ++it) {
    // Quasi-Fermi levels from the current carrier fields.
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (!dev_.is_silicon(idx)) {
        phi_n[idx] = 0.0;
        phi_p[idx] = 0.0;
        continue;
      }
      const double nn = std::max(n[idx], 1e-20 * ni);
      const double pp = std::max(p[idx], 1e-20 * ni);
      phi_n[idx] = psi[idx] - vt * std::log(nn / ni);
      phi_p[idx] = psi[idx] + vt * std::log(pp / ni);
    }

    psi_prev = psi;
    PoissonResult pres = [&] {
      const obs::ScopedSpan poisson_span(
          prof_, obs::names::spans::kGummelPoisson);
      return solve_poisson(dev_, bias, phi_n, phi_p, psi,
                           options_.poisson, prof_, &poisson_workspace_);
    }();
    if (ins_.poisson_newton_iterations != nullptr) {
      ins_.poisson_newton_iterations->add(pres.iterations);
      ins_.poisson_factorizations->add(pres.factorizations);
      ins_.band_entries->add(pres.band_entries);
    }
    // The sample for this outer iteration; fields of stages never
    // reached stay NaN (rendered null by the JSON exporter).
    constexpr double kUnreached = std::numeric_limits<double>::quiet_NaN();
    obs::ConvergenceSample sample;
    sample.iteration = static_cast<std::uint32_t>(it + 1);
    sample.poisson_update = pres.max_update;
    sample.poisson_iterations = static_cast<std::uint32_t>(pres.iterations);
    sample.continuity_max_density = kUnreached;
    sample.psi_update = kUnreached;
    if (fault_fires(SolveStage::kPoisson, it, bias)) {
      pres.converged = false;
      pres.status = SolveStatus::kStalled;
    }
    if (!pres.converged) {
      if (trajectory != nullptr) trajectory->samples.push_back(sample);
      return {pres.status, SolveStage::kPoisson, it + 1, pres.iterations,
              pres.max_update};
    }

    // Under-relax the potential update at free nodes (contacts stay at
    // their imposed Dirichlet values). damping = 1 reproduces the plain
    // Gummel step.
    if (damping < 1.0) {
      for (std::size_t idx = 0; idx < n_nodes; ++idx) {
        if (!m.contact_of(idx).empty()) continue;
        psi[idx] = psi_prev[idx] + damping * (psi[idx] - psi_prev[idx]);
      }
    }

    const auto [rn, rp] = [&] {
      const obs::ScopedSpan continuity_span(
          prof_, obs::names::spans::kGummelContinuity);
      ContinuityResult electron =
          solve_continuity(dev_, physics::Carrier::kElectron, psi, p, n,
                           prof_, &sg_workspace_);
      const ContinuityResult hole =
          solve_continuity(dev_, physics::Carrier::kHole, psi, n, p,
                           prof_, &sg_workspace_);
      return std::make_pair(electron, hole);
    }();
    sample.continuity_max_density = std::max(rn.max_density, rp.max_density);
    if (ins_.continuity_solves != nullptr) {
      ins_.continuity_solves->add(2);
      ins_.band_entries->add(rn.band_entries + rp.band_entries);
    }
    if (ins_.continuity_clamped_nodes != nullptr) {
      ins_.continuity_clamped_nodes->add(rn.clamped_nodes + rp.clamped_nodes);
    }
    SolveStatus rn_status = rn.status;
    if (fault_fires(SolveStage::kContinuity, it, bias)) {
      rn_status = SolveStatus::kNonFinite;
    }
    if (rn_status != SolveStatus::kConverged ||
        rp.status != SolveStatus::kConverged) {
      if (trajectory != nullptr) trajectory->samples.push_back(sample);
      const SolveStatus bad =
          rn_status != SolveStatus::kConverged ? rn_status : rp.status;
      return {bad, SolveStage::kContinuity, it + 1, 1, dpsi};
    }

    dpsi = 0.0;
    double max_psi = 0.0;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      dpsi = std::max(dpsi, std::abs(psi[idx] - psi_prev[idx]));
      max_psi = std::max(max_psi, std::abs(psi[idx]));
    }
    sample.psi_update = dpsi;
    if (trajectory != nullptr) trajectory->samples.push_back(sample);
    if (!std::isfinite(dpsi) || !std::isfinite(max_psi)) {
      return {SolveStatus::kNonFinite, SolveStage::kGummel, it + 1, it + 1,
              dpsi};
    }
    if (max_psi > kGummelDivergenceThreshold) {
      return {SolveStatus::kDiverged, SolveStage::kGummel, it + 1, it + 1,
              dpsi};
    }
    if (dpsi < options_.psi_tolerance) {
      if (fault_fires(SolveStage::kGummel, it, bias)) {
        return {SolveStatus::kStalled, SolveStage::kGummel, it + 1, it + 1,
                dpsi};
      }
      return {SolveStatus::kConverged, SolveStage::kNone, it + 1, it + 1,
              dpsi};
    }
  }
  return {SolveStatus::kStalled, SolveStage::kGummel, options_.max_iterations,
          options_.max_iterations, dpsi};
}

double DriftDiffusionSolver::terminal_current(
    const std::string& contact) const {
  const auto& m = dev_.mesh();
  const std::size_t nx = m.nx();
  double current = 0.0;

  for (const std::size_t idx : m.contact_nodes(contact)) {
    if (!dev_.is_silicon(idx)) continue;  // gate: no conduction current
    const std::size_t i = m.i_of(idx);
    const std::size_t j = m.j_of(idx);
    const auto accumulate = [&](std::size_t nb, double dist, double area) {
      if (!dev_.silicon_edge(idx, nb)) return;
      if (m.contact_of(nb) == contact) return;  // internal to the contact
      current += edge_current(dev_, physics::Carrier::kElectron, state_.psi,
                              state_.n, idx, nb, dist, area);
      current += edge_current(dev_, physics::Carrier::kHole, state_.psi,
                              state_.p, idx, nb, dist, area);
    };
    if (i > 0) {
      accumulate(m.index(i - 1, j), m.x(i) - m.x(i - 1),
                 m.dy_minus(j) + m.dy_plus(j));
    }
    if (i + 1 < nx) {
      accumulate(m.index(i + 1, j), m.x(i + 1) - m.x(i),
                 m.dy_minus(j) + m.dy_plus(j));
    }
    if (j > 0) {
      accumulate(m.index(i, j - 1), m.y(j) - m.y(j - 1),
                 m.dx_minus(i) + m.dx_plus(i));
    }
    if (j + 1 < m.ny()) {
      accumulate(m.index(i, j + 1), m.y(j + 1) - m.y(j),
                 m.dx_minus(i) + m.dx_plus(i));
    }
  }
  return current;
}

}  // namespace subscale::tcad
