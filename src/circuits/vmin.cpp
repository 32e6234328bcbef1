#include "circuits/vmin.h"

#include <algorithm>
#include <vector>

#include "cache/study_keys.h"
#include "opt/golden_section.h"
#include "opt/memo.h"

namespace subscale::circuits {

VminResult find_vmin(const InverterDevices& devices, const ChainSpec& chain,
                     const VminOptions& options) {
  // Every chain energy this search computes, so the breakdown at the
  // optimum is a lookup; only an optimum the memo served is recomputed.
  std::vector<ChainEnergyResult> evaluated;
  const auto energy = [&](double vdd) {
    evaluated.push_back(chain_energy(devices, vdd, chain));
    return evaluated.back().e_total;
  };
  const opt::EvalMemo memo(
      options.cache_sink(),
      cache::vmin_key(devices.nfet->spec(), devices.pfet->spec(),
                      devices.nfet->calibration(), chain, options));
  const opt::BatchObjective serial_batch =
      [&](const std::vector<double>& xs) {
        std::vector<double> values;
        values.reserve(xs.size());
        for (const double x : xs) values.push_back(energy(x));
        return values;
      };
  const opt::ScalarMinimum m = opt::scan_then_golden(
      serial_batch, energy, options.v_lo, options.v_hi, options.scan_points,
      options.v_tolerance, memo);
  VminResult result;
  result.vmin = m.x;
  const auto hit =
      std::find_if(evaluated.begin(), evaluated.end(),
                   [&](const ChainEnergyResult& r) { return r.vdd == m.x; });
  result.at_vmin =
      hit != evaluated.end() ? *hit : chain_energy(devices, m.x, chain);
  return result;
}

}  // namespace subscale::circuits
