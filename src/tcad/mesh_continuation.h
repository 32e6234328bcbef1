#pragma once

/// \file mesh_continuation.h
/// Coarse-to-fine mesh continuation for cold drift–diffusion solves.
/// The expensive part of a cold solve is the bias-continuation ramp on
/// the FINE mesh: a dozen-plus continuation points, each a full Gummel
/// solve against an O(bandwidth^2 * n) banded factorization. A mesh 4x
/// coarser in each direction factors ~256x cheaper, so ramping on a
/// cascade of coarse replicas and prolonging the result down as a
/// fine-mesh initial guess converts the fine ramp into (ideally) one
/// seeded single-shot solve.
///
/// Correctness is never delegated to the coarse levels: the prolonged
/// state is only ever an INITIAL GUESS for the fine solver, which still
/// converges against its own tolerances (the equivalence tier pins
/// this). Any coarse-level failure is counted
/// (tcad.meshcont.fallbacks) and reported by returning false; the
/// caller then runs the ordinary cold path.
///
/// Prolongation operators (exposed for the property tests):
///   * prolong_bilinear     — tensor-product linear interpolation with
///     edge clamping. Weights are convex, so the prolonged field is
///     bounded by the coarse field's min/max and per-axis monotonicity
///     is preserved (no overshoot into unphysical guesses).
///   * prolong_log_density  — the same interpolation in log space
///     (densities span ~20 decades; linear-space blending would be
///     dominated by the larger endpoint). Inputs are floored first, so
///     zeros (oxide nodes) stay at the floor instead of -inf.

#include <cstddef>
#include <memory>
#include <vector>

#include "compact/device_spec.h"
#include "exec/run_context.h"
#include "mesh/mesh2d.h"
#include "tcad/device_structure.h"
#include "tcad/gummel.h"

namespace subscale::tcad {

/// Interpolate a coarse-mesh nodal field onto a fine mesh. Fine nodes
/// outside the coarse hull clamp to the nearest coarse line (grading
/// can leave sub-spacing extent mismatches at the domain edges).
std::vector<double> prolong_bilinear(const mesh::TensorMesh2d& coarse,
                                     const mesh::TensorMesh2d& fine,
                                     const std::vector<double>& field);

/// prolong_bilinear applied to log(max(density, floor)), exponentiated
/// back. The result is a geometric blend, bounded by the (floored)
/// coarse min/max like the linear version.
std::vector<double> prolong_log_density(const mesh::TensorMesh2d& coarse,
                                        const mesh::TensorMesh2d& fine,
                                        const std::vector<double>& density,
                                        double floor);

/// The coarse-level cascade for one device. Owned by TcadDevice when
/// GummelOptions::mesh_continuation_levels > 0; level k runs on a mesh
/// with surface/junction spacings scaled by 2^k. Solves go coarsest
/// first, each seeding the next-finer level, and the finest coarse
/// solution is prolonged onto the fine mesh as the guess handed back.
class MeshContinuation {
 public:
  /// Builds the coarse device replicas and their solvers, with the
  /// caller's options relaxed to seed accuracy. A coarse_only fault in
  /// `options` is re-armed inside every coarse solver (flag cleared);
  /// any other fault stays with the fine solver only.
  MeshContinuation(const compact::DeviceSpec& spec,
                   const MeshOptions& fine_mesh, const GummelOptions& options,
                   const exec::RunContext& ctx);

  /// Solve the equilibrium cascade (once; subsequent calls reuse it)
  /// and prolong onto `fine`. False = some coarse level failed
  /// (counted); `guess` untouched.
  bool equilibrium_guess(const DeviceStructure& fine, State& guess);

  /// Ramp the cascade to `target` (solver-frame volts) and prolong the
  /// finest coarse solution onto `fine`. Coarse levels keep their state
  /// between calls, so a sweep pays incremental ramps only.
  bool bias_guess(const BiasPoint& target, const DeviceStructure& fine,
                  State& guess);

  std::size_t level_count() const { return levels_.size(); }
  /// Device structure of level k, coarsest first (test observability).
  const DeviceStructure& level_device(std::size_t k) const {
    return *levels_.at(k).dev;
  }

 private:
  struct Level {
    std::unique_ptr<DeviceStructure> dev;
    std::unique_ptr<DriftDiffusionSolver> solver;
  };

  bool ensure_equilibrium();
  /// Level `level`'s solution prolonged onto `to`.
  State prolong(std::size_t level, const DeviceStructure& to);

  std::vector<Level> levels_;  ///< coarsest first
  bool equilibrium_attempted_ = false;
  bool equilibrium_ok_ = false;
  obs::Counter* levels_counter_ = nullptr;
  obs::Counter* prolongations_counter_ = nullptr;
  obs::Counter* fallbacks_counter_ = nullptr;
  obs::SpanProfiler* prof_ = nullptr;
};

}  // namespace subscale::tcad
