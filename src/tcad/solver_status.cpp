#include "tcad/solver_status.h"

#include <cstdio>
#include <stdexcept>

namespace subscale::tcad {

const char* to_string(SolveStage stage) {
  switch (stage) {
    case SolveStage::kNone:
      return "none";
    case SolveStage::kPoisson:
      return "Poisson";
    case SolveStage::kContinuity:
      return "continuity";
    case SolveStage::kGummel:
      return "Gummel";
  }
  return "unknown";
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kStalled:
      return "stalled";
    case SolveStatus::kDiverged:
      return "diverged";
    case SolveStatus::kNonFinite:
      return "non-finite";
  }
  return "unknown";
}

double BiasPoint::of(const std::string& contact) const {
  if (contact == "gate") return vg;
  if (contact == "drain") return vd;
  if (contact == "source" || contact == "bulk") return 0.0;
  throw std::invalid_argument("BiasPoint: no bias for contact '" + contact +
                              "'");
}

std::string SolverReport::summary() const {
  const BiasPoint& at = converged ? target : failed_at;
  char buf[256];
  if (converged) {
    std::snprintf(buf, sizeof(buf),
                  "converged at gate=%.4gV drain=%.4gV (%zu continuation "
                  "steps, %zu retries, %zu Gummel iterations)",
                  at.vg, at.vd, continuation_steps, retries,
                  total_gummel_iterations);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s %s at gate=%.4gV drain=%.4gV (%zu retries, final step "
                  "%.4gV, damping %.3g, residual %.3g V)",
                  to_string(failed_stage), to_string(status), at.vg, at.vd,
                  retries, final_bias_step, final_damping, final_residual);
  }
  return buf;
}

SolverError::SolverError(SolverReport report)
    : std::runtime_error("DriftDiffusionSolver: " + report.summary()),
      report_(std::move(report)) {}

}  // namespace subscale::tcad
