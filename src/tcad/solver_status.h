#pragma once

/// \file solver_status.h
/// Structured solver diagnostics for the TCAD stack. A drift-diffusion
/// solve is a nest of stages (nonlinear Poisson inside a Gummel outer
/// loop inside a bias-continuation ramp); when one of them gives up we
/// want to know *which* stage failed, at *which* bias point, after how
/// many iterations and at what residual — not a bare runtime_error
/// string. SolverReport records all of that; SolverError carries it
/// through the calls that have no partial result to return
/// (solve_equilibrium, TcadDevice::id_at). Sweeps consume reports, skip
/// the bad point, and keep going.

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace subscale::tcad {

/// The stage of the drift-diffusion solve that produced an outcome.
enum class SolveStage {
  kNone,        ///< no failure recorded
  kPoisson,     ///< nonlinear Poisson (inner Newton)
  kContinuity,  ///< electron/hole continuity linear solve
  kGummel,      ///< the outer decoupled iteration
};

/// How a stage finished.
enum class SolveStatus {
  kConverged,  ///< met its tolerance
  kStalled,    ///< ran out of iterations while still finite
  kDiverged,   ///< update/state grew past the divergence threshold
  kNonFinite,  ///< NaN/Inf detected in the state
};

const char* to_string(SolveStage stage);
const char* to_string(SolveStatus status);

/// One rejected attempt at one continuation bias point (kept so the
/// retry/backoff history is reconstructible from the report alone).
struct AttemptRecord {
  std::map<std::string, double> biases;  ///< the bias point attempted
  SolveStage stage = SolveStage::kNone;  ///< stage that failed
  SolveStatus status = SolveStatus::kConverged;
  std::size_t gummel_iterations = 0;  ///< outer iterations spent
  std::size_t stage_iterations = 0;   ///< inner iterations of the stage
  double residual = 0.0;              ///< final max |dpsi| [V]
  double bias_step = 0.0;             ///< continuation step in effect [V]
  double damping = 1.0;               ///< under-relaxation in effect
};

/// Full diagnostics of one solve (equilibrium or a continuation ramp).
struct SolverReport {
  bool converged = true;
  SolveStage failed_stage = SolveStage::kNone;
  SolveStatus status = SolveStatus::kConverged;
  std::map<std::string, double> target;        ///< requested biases [V]
  std::map<std::string, double> failed_biases; ///< point that gave up
  std::size_t continuation_steps = 0;  ///< accepted bias steps
  std::size_t retries = 0;             ///< rejected attempts
  std::size_t total_gummel_iterations = 0;
  double final_residual = 0.0;   ///< max |dpsi| of the last attempt [V]
  double final_bias_step = 0.0;  ///< continuation step when finishing [V]
  double final_damping = 1.0;    ///< under-relaxation when finishing
  /// True when a seeded single-shot solve (mesh-continuation prolonged
  /// guess) converged directly, skipping the continuation ramp.
  bool seed_used = false;
  std::vector<AttemptRecord> failures;  ///< every rejected attempt

  /// One-line human-readable digest, e.g.
  /// "Poisson stalled at gate=0.20V drain=0.25V (3 retries, ...)".
  std::string summary() const;
};

/// Strict-mode failure: still an std::runtime_error (so existing
/// catch sites keep working) but carrying the structured report.
class SolverError : public std::runtime_error {
 public:
  explicit SolverError(SolverReport report);
  const SolverReport& report() const { return report_; }

 private:
  SolverReport report_;
};

}  // namespace subscale::tcad
