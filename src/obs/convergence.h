#pragma once

/// \file convergence.h
/// Per-solve convergence trajectories. Counters say a Gummel solve took
/// 47 outer iterations; this recorder keeps *how the residual decayed*
/// across those iterations, so a pathological bias point can be
/// diagnosed from its recorded curve (slow geometric decay vs. a
/// plateau vs. oscillation) instead of rerunning under a debugger.
///
/// Strictly opt-in via exec::RunContext::convergence — unlike the
/// metrics registry there is no process-wide default, because one
/// trajectory is hundreds of bytes and a study runs thousands of
/// solves. With a null recorder the solver pays one branch per solve.
///
/// Concurrency: the solver builds each trajectory privately and commits
/// it whole, so the recorder's lock is taken once per solve, never per
/// iteration. Capacity is fixed at construction; trajectories past it
/// are dropped and counted, soak-run safe like the span profiler.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace subscale::obs {

/// One Gummel outer iteration of one solve. Fields that an iteration
/// never reached (e.g. psi_update when the Poisson stage failed) hold
/// NaN, which the JSON exporter renders as null.
struct ConvergenceSample {
  std::uint32_t iteration = 0;  ///< outer iteration, 1-based
  double poisson_update = 0.0;  ///< nonlinear-Poisson final max |dV| [V]
  std::uint32_t poisson_iterations = 0;  ///< Newton iterations spent
  double continuity_max_density = 0.0;   ///< peak carrier density [1/m^3]
  double psi_update = 0.0;  ///< outer-loop max |dpsi| — the residual [V]
};

/// The decay curve of one Gummel solve at one (possibly intermediate
/// continuation) bias point.
struct SolveTrajectory {
  double vg = 0.0;  ///< gate bias of this solve [V]
  double vd = 0.0;  ///< drain bias of this solve [V]
  bool converged = false;
  std::vector<ConvergenceSample> samples;  ///< one per outer iteration
};

class ConvergenceRecorder {
 public:
  /// Throws std::invalid_argument when max_solves is zero.
  explicit ConvergenceRecorder(std::size_t max_solves = 256);

  ConvergenceRecorder(const ConvergenceRecorder&) = delete;
  ConvergenceRecorder& operator=(const ConvergenceRecorder&) = delete;

  /// Store one finished trajectory (drops it when at capacity).
  void commit(SolveTrajectory&& trajectory);

  std::size_t capacity() const { return capacity_; }
  /// Solves offered since construction, including dropped ones.
  std::uint64_t total_solves() const;
  /// Solves lost to the capacity cap.
  std::uint64_t dropped_solves() const;

  /// The retained trajectories, in commit order.
  std::vector<SolveTrajectory> snapshot() const;
  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SolveTrajectory> solves_;
  std::uint64_t total_ = 0;
};

}  // namespace subscale::obs
