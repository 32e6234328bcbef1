#pragma once

/// \file subvth_strategy.h
/// The paper's proposed scaling strategy (Sec. 3): instead of shrinking
/// L_poly 30 %/generation, pick the ENERGY-OPTIMAL gate length — the
/// minimizer of C_L * S_S^2 (Eq. 8) — with doping co-optimized at every
/// candidate length, and hold I_off fixed at 100 pA/um across
/// generations (which makes the delay factor reduce to C_L * S_S, Eq. 6).
///
/// Doping co-optimization at a given L_poly:
///   * the overall doping scale is set by the I_off constraint, and
///   * the substrate/halo split enforces a flat V_th roll-off,
///     -dV_th,SCE = dV_th,halo (the paper's well-optimized-device
///     condition), iterated to a joint fixed point.

#include <vector>

#include "exec/policy.h"
#include "scaling/supervth_strategy.h"
#include "scaling/technology.h"

namespace subscale::scaling {

struct SubVthOptions {
  double ioff_pa_um = 100.0;  ///< fixed leakage across all generations
  /// Coarse-scan size of the L_poly search over [min, 3.5 x min].
  std::size_t lpoly_scan_points = 17;
  std::size_t split_iterations = 5;  ///< scale/split fixed-point sweeps
  /// Card-level device environment (backend kind, temperature, wire
  /// radius); the default reproduces the paper's bulk-at-300K setup
  /// bitwise. On a non-bulk backend the halo-split flatness condition
  /// is a bulk-specific concept, so the doping co-optimization solves
  /// the I_off scale only (np_halo stays 0) — GAA wires need no halos.
  compact::DeviceEnv env{};
  /// Fan-out policy for the independent design candidates: the L_poly
  /// scan grid inside design_subvth_device (each candidate runs its own
  /// doping co-optimization) and the nodes of subvth_roadmap. Results
  /// are identical at every thread count; nested fan-out (roadmap over
  /// nodes, scan per node) degrades the inner level to inline execution
  /// instead of oversubscribing.
  exec::ExecPolicy exec{};
};

/// Co-optimize doping at a fixed gate length (I_off constraint + flat
/// roll-off split). Exposed separately because Fig. 7's "optimized
/// doping" curve is exactly this function swept over L_poly.
compact::DeviceSpec optimize_subvth_doping(
    const NodeInput& node, double lpoly_nm, const SubVthOptions& options = {},
    const compact::Calibration& calib = compact::paper_calibration());

/// Energy factor C_L * S_S^2 (paper Eq. 8), in SI units (F * V^2/dec^2
/// per the spec's width). Comparisons/normalization happen in the caller.
double energy_factor(const compact::DeviceSpec& spec,
                     const compact::Calibration& calib =
                         compact::paper_calibration());

/// Delay factor C_L * S_S / I_off (paper Eq. 6) [s/dec-ish units].
double delay_factor(const compact::DeviceSpec& spec,
                    const compact::Calibration& calib =
                        compact::paper_calibration());

/// A designed sub-V_th device plus Table-3-style values.
struct SubVthDevice {
  DesignedDevice device;          ///< report row (I_off at V_ds = 0.3 V)
  double lpoly_opt_nm = 0.0;      ///< the energy-optimal gate length
  double energy_factor_raw = 0.0; ///< C_L S_S^2 (unnormalized)
  double delay_factor_raw = 0.0;  ///< C_L S_S / I_off (unnormalized)
};

/// Design the node's device: sweep L_poly, co-optimize doping, pick the
/// energy-optimal length.
SubVthDevice design_subvth_device(
    const NodeInput& node, const SubVthOptions& options = {},
    const compact::Calibration& calib = compact::paper_calibration());

/// The full roadmap (Table 3 equivalent).
std::vector<SubVthDevice> subvth_roadmap(
    const SubVthOptions& options = {},
    const compact::Calibration& calib = compact::paper_calibration());

/// The roadmap over an explicit node list (a technology card's resolved
/// nodes). The default overload above is exactly this on paper_nodes().
std::vector<SubVthDevice> subvth_roadmap(
    const std::vector<NodeInput>& nodes, const SubVthOptions& options = {},
    const compact::Calibration& calib = compact::paper_calibration());

}  // namespace subscale::scaling
