#pragma once

/// \file device_sim.h
/// High-level TCAD device view: build the structure from a DeviceSpec,
/// run bias sweeps, report terminal currents. This is the library's
/// stand-in for the paper's MEDICI runs.
///
/// Polarity handling: callers pass source-referenced MAGNITUDES (like
/// the compact model); for a PFET the solver internally negates the
/// applied voltages and the returned current.
///
/// Robustness: a sweep does not abort on one hard bias point. A point
/// whose continuation/retry budget is exhausted is recorded in the
/// SweepResult's report (with the full SolverReport naming the failing
/// stage) and the sweep continues from the last-good state.
///
/// Telemetry: the RunContext passed at construction supplies the
/// metrics sink and span profiler for the device's solver and for the
/// sweep loop itself (per-point counters, the tcad.sweep.point span and
/// latency histogram, and SweepResult::timings).
///
/// Caching: the context's solve cache (RunContext::cache_sink()) is
/// resolved once at construction, like the metrics sink. When present:
///   * the equilibrium solution is restored from / published to the
///     cache (bitwise-exact — the equilibrium solve is deterministic
///     for a given structure, so a restore equals a fresh solve);
///   * id_vg consults a sweep record keyed on (device, mesh, solver
///     options, bias grid); a hit replays the stored result
///     bitwise-identically without touching the solver state (every
///     field but SweepPointRecord::wall_ms, which the record does not
///     carry);
///   * on a sweep miss, the nearest cached bias state of the SAME
///     device (if any, and if CacheOptions::warm_start) seeds the
///     continuation ramp — a within-tolerance accelerator, not a
///     bitwise replay — and a fully converged sweep is published
///     together with its final solver state for future warm starts.
/// Cache use is disabled entirely while GummelOptions::fault is armed:
/// replaying cached results would mask the recovery paths faults exist
/// to exercise.

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hash.h"
#include "exec/run_context.h"
#include "tcad/gummel.h"
#include "tcad/mesh_continuation.h"

namespace subscale::tcad {

struct IdVgPoint {
  double vg = 0.0;  ///< gate-source magnitude [V]
  double id = 0.0;  ///< drain current magnitude [A per metre of width]
};

/// One bias point a sweep had to give up on.
struct FailedPoint {
  double vg = 0.0;
  double vd = 0.0;
  SolverReport report;  ///< why (stage, status, retries, residual)
};

struct SweepReport {
  std::size_t attempted = 0;  ///< points the sweep tried
  std::vector<FailedPoint> failures;
  bool all_converged() const { return failures.empty(); }
};

/// Wall time and solver effort of one attempted sweep point (converged
/// or not). Timings are wall-clock diagnostics, not part of any
/// determinism contract; the iteration/retry counts are exact. A sweep
/// replayed from the solve cache reads wall_ms 0: no solve ran, and the
/// record keeps no wall time, so one key is always the same bytes.
struct SweepPointRecord {
  double vg = 0.0;       ///< gate bias magnitude [V]
  double wall_ms = 0.0;  ///< wall time spent on this point (0 if replayed)
  std::size_t gummel_iterations = 0;  ///< outer iterations, all ramps
  std::size_t retries = 0;            ///< rejected continuation attempts
  bool converged = false;
};

/// Everything one id_vg() call produced, as a value: the curve, the
/// failure report, and per-point effort records. Replaces the old
/// (return vector, mutate last_sweep_report()) split so results can be
/// moved across threads without aliasing device state.
struct SweepResult {
  std::vector<IdVgPoint> points;  ///< converged points only
  SweepReport report;
  std::vector<SweepPointRecord> timings;  ///< one per attempted point

  bool all_converged() const { return report.all_converged(); }
  std::size_t size() const { return points.size(); }
  const IdVgPoint& operator[](std::size_t i) const { return points[i]; }
};

class TcadDevice {
 public:
  /// Builds the structure, installs the context's telemetry sink into
  /// the solver, and solves equilibrium. `ctx` is retained as the
  /// device's default context for every subsequent solve/sweep.
  explicit TcadDevice(const compact::DeviceSpec& spec,
                      const MeshOptions& mesh_options = {},
                      const GummelOptions& gummel_options = {},
                      const exec::RunContext& ctx = {});

  const DeviceStructure& structure() const { return dev_; }
  const DriftDiffusionSolver& solver() const { return solver_; }

  /// Drain current magnitude at the given source-referenced biases
  /// [A per metre of width]. Uses continuation from the last solve.
  /// Throws SolverError if the point is unrecoverable.
  double id_at(double vg, double vd);

  /// Gate sweep at fixed drain bias (ascending vg is fastest because
  /// each point continues from the previous one). Unrecoverable points
  /// are omitted from the returned curve and recorded in the result's
  /// report.
  SweepResult id_vg(double vd, double vg_start, double vg_stop,
                    std::size_t points);

  /// The cache this device resolved at construction (null = caching
  /// off) and its content key — test observability.
  cache::SolveCache* solve_cache() const { return cache_; }
  const cache::HashKey& device_key() const { return device_key_; }

  /// The mesh-continuation cascade (null when
  /// GummelOptions::mesh_continuation_levels == 0 or coarse replica
  /// construction failed) — test observability.
  const MeshContinuation* mesh_continuation() const {
    return meshcont_.get();
  }

 private:
  /// Restore the solver state cached at bias point `at` (solver frame);
  /// false on miss or on a record that fails validation.
  bool restore_cached_state(const BiasPoint& at);
  /// Publish the solver's current converged state and register its bias
  /// point in the per-device warm-start index.
  void publish_state();
  /// Seed the solver from the nearest cached bias state to `target`
  /// (solver frame), if one is strictly nearer than the state the solver
  /// already holds.
  void warm_start_toward(const BiasPoint& target);
  /// Equilibrium, seeded by mesh continuation when configured.
  void cold_equilibrium();
  /// One bias point (solver-frame volts), seeded by mesh continuation
  /// when the bias gap is large enough to need a multi-step fine ramp.
  const SolverReport& solve_point(const BiasPoint& target);
  /// Counts one mesh-continuation fallback: a cascade that could not be
  /// built or solved, or a seed the fine solver could not use.
  void count_meshcont_fallback() const;

  DeviceStructure dev_;
  exec::RunContext run_;
  GummelOptions gummel_options_;
  DriftDiffusionSolver solver_;
  std::unique_ptr<MeshContinuation> meshcont_;
  double sign_ = 1.0;
  cache::SolveCache* cache_ = nullptr;
  cache::HashKey device_key_{};
};

}  // namespace subscale::tcad
