#include "tcad/extract.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::tcad {

namespace {

/// The S_S regression window, in decades of current above the sweep's
/// minimum current.
constexpr double kWindowLoDecades = 0.5;
constexpr double kWindowHiDecades = 3.5;
/// Constant-current V_th criterion [A/m] (0.1 uA/um).
constexpr double kVthCurrent = 1e-1;

/// V_g at which the sweep crosses `current` (log-linear interpolation).
double crossing_voltage(const std::vector<IdVgPoint>& sweep, double current) {
  for (std::size_t k = 0; k + 1 < sweep.size(); ++k) {
    if (sweep[k].id <= current && sweep[k + 1].id >= current) {
      const double l0 = std::log(sweep[k].id);
      const double l1 = std::log(sweep[k + 1].id);
      const double t = (std::log(current) - l0) / (l1 - l0);
      return sweep[k].vg + t * (sweep[k + 1].vg - sweep[k].vg);
    }
  }
  throw std::invalid_argument(
      "crossing_voltage: sweep never crosses the criterion current");
}

}  // namespace

SweepExtraction extract_from_sweep(const std::vector<IdVgPoint>& sweep) {
  if (sweep.size() < 5) {
    throw std::invalid_argument("extract_from_sweep: sweep too short");
  }
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    if (sweep[k].id <= 0.0) {
      throw std::invalid_argument("extract_from_sweep: non-positive current");
    }
    if (k > 0 && sweep[k].vg <= sweep[k - 1].vg) {
      throw std::invalid_argument("extract_from_sweep: vg must ascend");
    }
  }

  SweepExtraction out;
  out.ioff = sweep.front().id;
  out.ion = sweep.back().id;

  // S_S: regression of vg against log10(id) inside the decade window.
  const double log_min = std::log10(out.ioff);
  const double lo = log_min + kWindowLoDecades;
  const double hi = log_min + kWindowHiDecades;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  std::size_t count = 0;
  for (const IdVgPoint& p : sweep) {
    const double lid = std::log10(p.id);
    if (lid < lo || lid > hi) continue;
    sx += lid;
    sy += p.vg;
    sxx += lid * lid;
    sxy += lid * p.vg;
    syy += p.vg * p.vg;
    ++count;
  }
  if (count < 3) {
    throw std::invalid_argument(
        "extract_from_sweep: too few points in the subthreshold window");
  }
  const double nn = static_cast<double>(count);
  const double denom = nn * sxx - sx * sx;
  if (denom <= 0.0) {
    throw std::invalid_argument("extract_from_sweep: degenerate regression");
  }
  out.ss = (nn * sxy - sx * sy) / denom;  // dVg per decade
  const double r_num = nn * sxy - sx * sy;
  const double r_den =
      std::sqrt(denom) * std::sqrt(std::max(nn * syy - sy * sy, 1e-300));
  out.ss_r2 = (r_num / r_den) * (r_num / r_den);

  out.vth_cc = crossing_voltage(sweep, kVthCurrent);
  return out;
}

double extract_dibl(const std::vector<IdVgPoint>& sweep_lo, double vd_lo,
                    const std::vector<IdVgPoint>& sweep_hi, double vd_hi) {
  if (vd_hi <= vd_lo) {
    throw std::invalid_argument("extract_dibl: vd_hi must exceed vd_lo");
  }
  const double vth_lo = extract_from_sweep(sweep_lo).vth_cc;
  const double vth_hi = extract_from_sweep(sweep_hi).vth_cc;
  return (vth_lo - vth_hi) / (vd_hi - vd_lo);
}

}  // namespace subscale::tcad
