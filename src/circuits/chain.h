#pragma once

/// \file chain.h
/// Energy-per-cycle model of an inverter chain (the paper's Fig. 6/12
/// workload: 30 inverters, activity factor alpha = 0.1, operated at its
/// maximum frequency so the cycle time equals the chain delay).
///
/// E/cycle = alpha * N * C_stage * V_dd^2  +  I_leak,total * V_dd * T_cycle
/// which is exactly the paper's Eq. 7 with t_p replaced by the chain's
/// critical path N * t_p.

#include "circuits/delay.h"
#include "circuits/inverter.h"

namespace subscale::circuits {

inline constexpr std::size_t kChainStages = 30;
inline constexpr double kChainActivity = 0.1;  ///< switching activity alpha

struct ChainEnergyResult {
  double vdd = 0.0;
  double stage_delay = 0.0;     ///< simulated FO1 t_p at this vdd [s]
  double cycle_time = 0.0;      ///< kChainStages * t_p [s]
  double leakage_current = 0.0; ///< whole-chain static current [A]
  double e_dynamic = 0.0;       ///< [J]
  double e_leakage = 0.0;       ///< [J]
  double e_total = 0.0;         ///< [J]
};

/// Evaluate energy per cycle at the supply `vdd`.
ChainEnergyResult chain_energy(const InverterDevices& devices, double vdd);

/// Full-transient cross-check: propagate one edge down an N-stage chain
/// with the real circuit engine and return the total propagation time
/// (should match stages * fo1 stage delay to within discretization).
double simulate_chain_delay(const InverterDevices& devices, double vdd,
                            std::size_t stages);

}  // namespace subscale::circuits
