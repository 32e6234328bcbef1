#include "circuits/variability.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "circuits/delay.h"
#include "exec/parallel.h"
#include "exec/rng.h"
#include "physics/constants.h"

namespace subscale::circuits {

double MismatchModel::sigma_vth(const compact::DeviceSpec& spec) const {
  const double area = spec.width * spec.geometry.lpoly;
  if (area <= 0.0) {
    throw std::invalid_argument("MismatchModel::sigma_vth: non-positive area");
  }
  return a_vt / std::sqrt(area);
}

namespace {

constexpr double kKd = 0.69;  ///< analytical-delay fitting constant
/// Samples per RNG shard: changing it changes the sample set, like
/// changing the seed.
constexpr std::size_t kShardSize = 32;

/// Rebuild a device model with a shifted threshold (the calibration's
/// delta_vth is exactly an additive V_th term on every backend, so
/// mismatch composes with it directly, whatever the device physics).
std::shared_ptr<const compact::DeviceModel> shifted(
    const compact::DeviceModel& base, double dvth) {
  compact::Calibration calib = base.calibration();
  calib.delta_vth += dvth;
  return base.with_calibration(calib);
}

}  // namespace

DelayVariabilityResult delay_variability(const InverterDevices& inv,
                                         const MismatchModel& mismatch,
                                         const VariabilityOptions& options) {
  if (options.samples < 2) {
    throw std::invalid_argument("delay_variability: need >= 2 samples");
  }
  const double sigma_n = mismatch.sigma_vth(inv.nfet->spec());
  const double sigma_p = mismatch.sigma_vth(inv.pfet->spec());

  // Fixed-size shards, each drawing from its own counter-derived RNG
  // stream: the sample at a given global index is the same no matter
  // how many threads ran the Monte Carlo (or which one ran the shard).
  const std::size_t n_shards =
      (options.samples + kShardSize - 1) / kShardSize;
  std::vector<double> delays(options.samples);
  const auto run_shard = [&](std::size_t shard) {
    std::mt19937_64 rng(exec::seed_stream(options.seed, shard));
    std::normal_distribution<double> gauss(0.0, 1.0);
    const std::size_t begin = shard * kShardSize;
    const std::size_t end = std::min(options.samples, begin + kShardSize);
    for (std::size_t s = begin; s < end; ++s) {
      InverterDevices sample = inv;
      sample.nfet = shifted(*inv.nfet, sigma_n * gauss(rng));
      sample.pfet = shifted(*inv.pfet, sigma_p * gauss(rng));
      double tp = 0.0;
      if (options.simulate_transient) {
        tp = fo1_delay(sample).tp;
      } else {
        // Per-transition Eq. 4: each edge is driven by one device, so
        // the two V_th shifts enter separate exponentials (this is what
        // makes the delay distribution lognormal).
        const double cl = sample.stage_capacitance();
        const double v = sample.vdd;
        const double tphl = kKd * cl * v / sample.nfet->drain_current(v, v);
        const double tplh = kKd * cl * v / sample.pfet->drain_current(v, v);
        tp = 0.5 * (tphl + tplh);
      }
      delays[s] = tp;
    }
  };
  exec::rethrow_first(exec::parallel_for(n_shards, run_shard, options.exec));

  DelayVariabilityResult r;
  r.samples = delays.size();
  double sum = 0.0, sum_ln = 0.0;
  for (const double d : delays) {
    sum += d;
    sum_ln += std::log(d);
  }
  r.mean = sum / static_cast<double>(delays.size());
  const double mean_ln = sum_ln / static_cast<double>(delays.size());
  double var = 0.0, var_ln = 0.0;
  for (const double d : delays) {
    var += (d - r.mean) * (d - r.mean);
    var_ln += (std::log(d) - mean_ln) * (std::log(d) - mean_ln);
  }
  var /= static_cast<double>(delays.size() - 1);
  var_ln /= static_cast<double>(delays.size() - 1);
  r.sigma = std::sqrt(var);
  r.sigma_over_mean = r.sigma / r.mean;
  r.sigma_ln = std::sqrt(var_ln);

  // Closed form: delay ~ exp(dVth/(m vT)) per transition; averaging the
  // two transitions halves the per-edge variance contribution of each
  // device, so sigma_ln^2 ~ (sigma_n^2 + sigma_p^2) / (2 m vT)^2 ... to
  // first order with equal weighting of rise/fall:
  const double m_n = inv.nfet->slope_factor();
  const double m_p = inv.pfet->slope_factor();
  const double vt = physics::thermal_voltage(inv.nfet->spec().temperature);
  const double s2 = 0.25 * (sigma_n * sigma_n / (m_n * m_n) +
                            sigma_p * sigma_p / (m_p * m_p));
  r.sigma_ln_predicted = std::sqrt(s2) / vt;
  return r;
}

}  // namespace subscale::circuits
