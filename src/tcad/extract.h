#pragma once

/// \file extract.h
/// Device-parameter extraction from simulated I_d-V_g sweeps — the same
/// post-processing the paper applied to its MEDICI output: inverse
/// subthreshold slope (regression over the exponential region),
/// constant-current threshold voltage, on/off currents and DIBL.

#include <vector>

#include "tcad/device_sim.h"

namespace subscale::tcad {

struct SweepExtraction {
  double ss = 0.0;      ///< inverse subthreshold slope [V/dec]
  double vth_cc = 0.0;  ///< constant-current threshold [V]
  double ioff = 0.0;    ///< current at the lowest vg of the sweep [A/m]
  double ion = 0.0;     ///< current at the highest vg of the sweep [A/m]
  double ss_r2 = 0.0;   ///< regression quality of the S_S fit
};

/// Extract parameters from an ascending-vg sweep with positive currents:
/// S_S by regression over 0.5–3.5 decades above the sweep's minimum
/// current, V_th at the constant-current criterion 0.1 A/m (0.1 uA/um,
/// MEDICI-style). Throws std::invalid_argument on unusable sweeps (too
/// short, wrong ordering, non-positive currents, no criterion crossing).
SweepExtraction extract_from_sweep(const std::vector<IdVgPoint>& sweep);

/// Convenience overload for the value-type sweep API: extracts from the
/// converged points of a SweepResult.
inline SweepExtraction extract_from_sweep(const SweepResult& sweep) {
  return extract_from_sweep(sweep.points);
}

/// DIBL coefficient from two sweeps at low and high drain bias [V/V]:
/// (V_th,lin - V_th,sat)/(vd_hi - vd_lo) using the constant-current V_th.
double extract_dibl(const std::vector<IdVgPoint>& sweep_lo, double vd_lo,
                    const std::vector<IdVgPoint>& sweep_hi, double vd_hi);

}  // namespace subscale::tcad
