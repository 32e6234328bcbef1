#pragma once

/// \file variability.h
/// Timing variability in the subthreshold regime — the paper's intro
/// motivation ("timing variability grows dramatically as V_dd reduces,
/// forcing pessimistic design practices and large timing margins").
///
/// Random V_th mismatch follows Pelgrom's law, sigma_Vth = A_VT /
/// sqrt(W L). In subthreshold the delay is exponential in V_th
/// (Eq. 5), so a Gaussian V_th spread becomes a LOGNORMAL delay spread
/// with log-sigma = sigma_Vth / (m vT) — this module quantifies that,
/// both in closed form and by Monte-Carlo over the full compact model.
///
/// A side effect the paper's proposed strategy enjoys for free: the
/// energy-optimal device has a LONGER gate, so its W L area is larger
/// and its sigma_Vth smaller — the sub-V_th strategy is also the
/// lower-variability strategy.

#include <cstdint>

#include "circuits/inverter.h"
#include "exec/policy.h"

namespace subscale::circuits {

/// Pelgrom mismatch model.
struct MismatchModel {
  /// A_VT matching coefficient [V*m]; 3.5 mV*um is a typical 90nm-class
  /// thin-oxide value.
  double a_vt = 3.5e-3 * 1e-6;

  /// sigma of the threshold-voltage mismatch for one device [V].
  double sigma_vth(const compact::DeviceSpec& spec) const;
};

struct DelayVariabilityResult {
  double mean = 0.0;            ///< mean FO1 delay [s]
  double sigma = 0.0;           ///< standard deviation [s]
  double sigma_over_mean = 0.0; ///< the paper's "variability" figure
  double sigma_ln = 0.0;        ///< measured std of ln(delay)
  double sigma_ln_predicted = 0.0;  ///< sigma_Vth,eff / (m vT) closed form
  std::size_t samples = 0;
};

struct VariabilityOptions {
  std::size_t samples = 400;
  std::uint64_t seed = 20070604;  ///< deterministic by default
  /// If true, each sample runs the backward-Euler transient; otherwise
  /// the analytical Eq. 4/5 delay (k_d = 0.69) with the sampled V_th
  /// shifts is used (three orders of magnitude faster, same distribution
  /// shape).
  bool simulate_transient = false;
  /// Monte-Carlo fan-out across shards of 32 samples. Each shard draws
  /// from its own stream (exec::seed_stream(seed, shard)), so the sampled
  /// V_th shifts, and therefore every statistic, are bitwise-identical at
  /// any thread count.
  exec::ExecPolicy exec{};
};

/// Monte-Carlo FO1 delay variability of an inverter whose N and P
/// devices carry independent Pelgrom V_th shifts.
DelayVariabilityResult delay_variability(const InverterDevices& inv,
                                         const MismatchModel& mismatch = {},
                                         const VariabilityOptions& options = {});

}  // namespace subscale::circuits
