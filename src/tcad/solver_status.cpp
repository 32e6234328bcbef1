#include "tcad/solver_status.h"

#include <cstdio>

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

std::string SolverReport::summary() const {
  std::string biases;
  for (const auto& [name, v] : (converged ? target : failed_biases)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.4gV", name.c_str(), v);
    biases += buf;
  }
  char buf[256];
  if (converged) {
    std::snprintf(buf, sizeof(buf),
                  "converged at%s (%zu continuation steps, %zu retries, "
                  "%zu Gummel iterations)",
                  biases.empty() ? " equilibrium" : biases.c_str(),
                  continuation_steps, retries, total_gummel_iterations);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s %s at%s (%zu retries, final step %.4gV, damping "
                  "%.3g, residual %.3g V)",
                  to_string(failed_stage), to_string(status),
                  biases.empty() ? " equilibrium" : biases.c_str(), retries,
                  final_bias_step, final_damping, final_residual);
  }
  return buf;
}

SolverError::SolverError(SolverReport report)
    : std::runtime_error("DriftDiffusionSolver: " + report.summary()),
      report_(std::move(report)) {}

}  // namespace subscale::tcad
