#include "circuits/vmin.h"

#include <algorithm>
#include <vector>

#include "opt/golden_section.h"

namespace subscale::circuits {

namespace {

constexpr double kVLo = 0.10;  ///< search bracket [V]
constexpr double kVHi = 0.70;
constexpr double kVTolerance = 1e-3;
constexpr std::size_t kScanPoints = 13;  ///< coarse scan before refinement

}  // namespace

VminResult find_vmin(const InverterDevices& devices) {
  // Every chain energy this search computes. The optimum is always one
  // of the supplies it evaluated, so its breakdown is a lookup.
  std::vector<ChainEnergyResult> evaluated;
  const auto energy = [&](double vdd) {
    evaluated.push_back(chain_energy(devices, vdd));
    return evaluated.back().e_total;
  };
  const opt::ScalarMinimum m =
      opt::scan_then_golden(energy, kVLo, kVHi, kScanPoints, kVTolerance);
  VminResult result;
  result.vmin = m.x;
  result.at_vmin =
      *std::find_if(evaluated.begin(), evaluated.end(),
                    [&](const ChainEnergyResult& r) { return r.vdd == m.x; });
  return result;
}

}  // namespace subscale::circuits
