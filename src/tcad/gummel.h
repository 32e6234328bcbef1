#pragma once

/// \file gummel.h
/// The Gummel (decoupled) iteration for the drift–diffusion system:
/// nonlinear Poisson with frozen quasi-Fermi levels, then electron and
/// hole continuity with the new potential, repeated until the potential
/// stops moving. Bias is applied by *adaptive* continuation: contacts
/// are ramped in bounded steps, and a step that fails to converge is
/// rolled back to the last-good state and retried with a halved step
/// and tightened under-relaxation, down to the fixed floors below. Every
/// solve produces a SolverReport (see solver_status.h); only the
/// equilibrium solves, which have no state to fall back to, throw.

#include <limits>
#include <string>
#include <vector>

#include "exec/run_context.h"
#include "obs/metrics.h"
#include "tcad/continuity.h"
#include "tcad/device_structure.h"
#include "tcad/poisson.h"
#include "tcad/solver_status.h"

namespace subscale::tcad {

// The resilience ladder's fixed policy. A well-behaved problem converges
// on its first attempt at full damping and never reaches the floors.
inline constexpr double kInitialDamping = 1.0;  ///< psi under-relaxation
inline constexpr double kRetryDamping = 0.6;    ///< damping factor per retry
inline constexpr double kMinDamping = 0.2;      ///< under-relaxation floor
inline constexpr double kMinBiasStep = 0.0125;  ///< continuation-step floor [V]
inline constexpr std::size_t kMaxContinuationSteps = 1000;  ///< ramp bound
/// max |psi| before an outer iteration is declared divergent [V]
inline constexpr double kGummelDivergenceThreshold = 50.0;

/// Deterministic fault injection for exercising the recovery paths in
/// tests and soak runs. While `count` failures remain, any Gummel solve
/// whose gate bias magnitude lies in [min_bias, max_bias) has the
/// chosen stage forced to fail at outer iteration `at_iteration`.
struct FaultInjection {
  SolveStage stage = SolveStage::kNone;  ///< kNone disables injection
  std::size_t at_iteration = 0;  ///< outer iteration that fails
  long count = 0;                ///< failures to inject before healing
  double min_bias = 0.0;         ///< |V_g| window lower edge [V]
  double max_bias = std::numeric_limits<double>::infinity();
  /// When true, the fault arms only inside the coarse-level solvers of
  /// mesh continuation, not the fine solver — the lever the
  /// coarse-failure-falls-back-cleanly tests pull. Any armed fault
  /// (coarse or fine) still disables the solve cache.
  bool coarse_only = false;
};

struct GummelOptions {
  std::size_t max_iterations = 60;
  double psi_tolerance = 1e-7;  ///< outer-loop max |dpsi| [V]
  double bias_step = 0.1;       ///< initial continuation step [V]

  /// Coarse-to-fine mesh continuation, the cold-path accelerator
  /// (opt-in; 0 reproduces the seed solver). Level k solves on a mesh
  /// with spacings scaled by 2^k (coarsest first), prolonging each
  /// solution down as the next level's initial guess; the fine solve
  /// still converges against its own tolerances, so the answer is the
  /// seed solver's — the differential-equivalence test tier pins that
  /// at 1e-9. Wired through TcadDevice (which owns mesh construction);
  /// the solver itself only takes the seeds its entry points accept.
  std::size_t mesh_continuation_levels = 0;

  FaultInjection fault;  ///< test-only deterministic failure forcing
  PoissonOptions poisson;

  /// Throws std::invalid_argument (with the offending field named) on
  /// non-positive iteration budgets or tolerances, a bias step below
  /// kMinBiasStep, too many mesh-continuation levels, or an inverted
  /// fault window. Called by DriftDiffusionSolver's ctor.
  void validate() const;
};

/// One solution of the drift–diffusion system, one value per mesh node.
struct State {
  std::vector<double> psi;  ///< electrostatic potential [V]
  std::vector<double> n;    ///< electron density [1/m^3], 0 off silicon
  std::vector<double> p;    ///< hole density [1/m^3], 0 off silicon
};

/// Owns the solution state for one device and advances it between bias
/// points. Both solve entry points take an optional seed: a state (a
/// mesh-continuation prolongation) tried once at the target before the
/// ordinary path. A seed that does not fit the mesh (wrong size or a
/// non-finite value) is ignored; one that fails is rolled back. Either
/// way the ordinary path then runs exactly as it does without a seed.
class DriftDiffusionSolver {
 public:
  /// Validates `options` and `ctx` (throws std::invalid_argument on bad
  /// fields). The context supplies the telemetry sink, span profiler
  /// and convergence recorder for every solve this instance runs; with
  /// the default context and no process-wide registry installed,
  /// instrumentation reduces to null-pointer tests.
  explicit DriftDiffusionSolver(const DeviceStructure& dev,
                                const GummelOptions& options = {},
                                const exec::RunContext& ctx = {});

  /// Solve the zero-bias problem. A fitting `guess` is tried first at
  /// full damping; without one, or when it fails, the charge-neutral
  /// guess runs the damping ladder. The report's seed_used says which
  /// path landed. Throws SolverError (an std::runtime_error) on
  /// non-convergence — without equilibrium there is no state to
  /// continue from.
  const SolverReport& solve_equilibrium(const State* guess = nullptr);

  /// Solve at `target`. A fitting `seed` is tried in one shot at the
  /// target, skipping the continuation ramp; without one, or when it
  /// fails, the gate and drain ramp from the previously solved bias
  /// point. Returns the report (also retrievable later via
  /// last_report()). On failure the state is rolled back to the
  /// last-good bias point, so a sweep can skip the point and continue.
  const SolverReport& try_solve_bias(const BiasPoint& target,
                                     const State* seed = nullptr);

  /// Terminal current of a contact [A per metre of width]; positive =
  /// conventional current flowing from the contact into the device.
  double terminal_current(const std::string& contact) const;

  /// The currently held solution.
  const State& state() const { return state_; }
  /// The bias point of the currently held solution.
  const BiasPoint& bias() const { return bias_; }
  const DeviceStructure& structure() const { return dev_; }

  /// Replace the solver state with an externally supplied solved
  /// solution (the solve-cache restore / warm-start path). Returns
  /// false — leaving the state untouched — when the state does not fit
  /// the mesh; on success the solver behaves exactly as if it had just
  /// converged at `bias` (subsequent bias ramps continue from here).
  /// The iteration counters of the report are zero: no solver work was
  /// done.
  bool adopt_state(const BiasPoint& bias, State state);

  /// Diagnostics of the most recent solve (equilibrium or bias ramp).
  const SolverReport& last_report() const { return report_; }

  /// Fault-injection failures not yet consumed (test observability).
  long pending_faults() const { return fault_budget_; }

 private:
  /// Outcome of one Gummel solve at one fixed bias point (no throw).
  struct GummelOutcome {
    SolveStatus status = SolveStatus::kConverged;
    SolveStage stage = SolveStage::kNone;  ///< failing stage, if any
    std::size_t iterations = 0;            ///< outer iterations spent
    std::size_t stage_iterations = 0;      ///< inner iters of the stage
    double residual = 0.0;                 ///< final max |dpsi| [V]
  };

  /// Publishing wrapper around gummel_at_impl: bumps the per-solve
  /// counters / histogram / residual gauge exactly once per outcome and,
  /// when a ConvergenceRecorder is wired, commits the solve's trajectory.
  GummelOutcome gummel_at(const BiasPoint& bias, double damping);
  /// `trajectory` (nullable) collects one ConvergenceSample per outer
  /// iteration; the caller owns it and commits it whole.
  GummelOutcome gummel_at_impl(const BiasPoint& bias, double damping,
                               obs::SolveTrajectory* trajectory);
  bool fault_fires(SolveStage stage, std::size_t iteration,
                   const BiasPoint& bias);

  /// Registry instruments, resolved once at construction (all null when
  /// telemetry is off, so hot paths pay one branch per event).
  struct Instruments {
    obs::Counter* solves = nullptr;
    obs::Counter* outer_iterations = nullptr;
    obs::Counter* continuation_steps = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* step_halvings = nullptr;
    obs::Counter* damping_tightenings = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* faults_injected = nullptr;
    obs::Counter* failed_solves = nullptr;
    obs::Counter* poisson_newton_iterations = nullptr;
    obs::Counter* poisson_factorizations = nullptr;
    obs::Counter* continuity_solves = nullptr;
    obs::Counter* continuity_clamped_nodes = nullptr;
    obs::Counter* band_entries = nullptr;
    obs::Gauge* last_residual = nullptr;
    obs::Histogram* iterations_per_solve = nullptr;
  };

  const DeviceStructure& dev_;
  GummelOptions options_;
  Instruments ins_;
  obs::SpanProfiler* prof_ = nullptr;  ///< resolved once (span_sink())
  obs::ConvergenceRecorder* recorder_ = nullptr;  ///< opt-in, may be null
  State state_;
  SgWorkspace sg_workspace_;  ///< amortized SG assembly tables/buffers
  /// Poisson stencil, buffers and held factor (dropped per Gummel solve)
  PoissonWorkspace poisson_workspace_;
  BiasPoint bias_;
  bool solved_ = false;
  SolverReport report_;
  long fault_budget_ = 0;
};

}  // namespace subscale::tcad
