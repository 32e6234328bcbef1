#pragma once

/// \file delay.h
/// FO1 inverter propagation delay, both simulated (backward-Euler
/// transient of the real device models — the paper's Fig. 5/11 quantity)
/// and analytical (paper Eq. 4/5, for cross-checks and the k_d fit).

#include "circuits/inverter.h"

namespace subscale::circuits {

struct DelayResult {
  double tphl = 0.0;  ///< output falling delay [s]
  double tplh = 0.0;  ///< output rising delay [s]
  double tp = 0.0;    ///< average propagation delay [s]
};

struct DelayOptions {
  std::size_t steps_per_tau = 60; ///< BE resolution per RC estimate
};

/// Simulated FO1 delay: one inverter driving the gate capacitance of an
/// identical inverter, step input, 50 % crossing measurement.
DelayResult fo1_delay(const InverterDevices& inv,
                      const DelayOptions& options = {});

/// Analytical delay t_p = k_d C_L V_dd / I_on(V_dd, V_dd) (paper Eq. 4);
/// in subthreshold this reduces to Eq. 5's exponential form because
/// I_on is Eq. 1's weak-inversion current.
double analytical_delay(const InverterDevices& inv, double kd);

/// Fit k_d so the analytical delay matches the simulated one at this
/// operating point (the paper's "fitting parameter").
double fit_kd(const InverterDevices& inv, const DelayOptions& options = {});

}  // namespace subscale::circuits
