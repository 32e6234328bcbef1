#pragma once

/// \file vmin.h
/// Minimum-energy operating point: V_min = argmin_vdd E_cycle(vdd) for an
/// inverter chain (paper Sec. 2.3.4, after refs [17][18]). Below V_min
/// leakage energy explodes with the exponentially growing cycle time;
/// above it dynamic CV^2 dominates.

#include "circuits/chain.h"

namespace subscale::circuits {

struct VminResult {
  double vmin = 0.0;        ///< energy-optimal supply [V]
  ChainEnergyResult at_vmin;  ///< full breakdown at the optimum
};

/// Golden-section (after a 13-point coarse scan) minimization of chain
/// energy over the supply, on [0.10, 0.70] V to 1 mV. The devices' own
/// rail is immaterial: each candidate re-rates them.
VminResult find_vmin(const InverterDevices& devices);

}  // namespace subscale::circuits
