#include "circuits/vtc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"
#include "opt/bisection.h"

namespace subscale::circuits {

namespace {

/// The output-node solves of one public VTC call. Solves are Newton on
/// the balance f(vout) = I_n(vin, vout) - I_p(vdd - vin, vdd - vout),
/// which is strictly increasing with slope g_ds,n + g_ds,p. Effort is
/// tallied here and added to the default registry's counters (looked up
/// once, up front) when the call returns, so no counter is touched per
/// device evaluation.
class VtcSolver {
 public:
  explicit VtcSolver(const InverterDevices& inv) : inv_(inv) {
    if (obs::MetricsRegistry* reg = obs::default_registry(); reg != nullptr) {
      solves_counter_ = &reg->counter(obs::names::kVtcSolves);
      iterations_counter_ = &reg->counter(obs::names::kVtcNewtonIterations);
    }
  }
  VtcSolver(const VtcSolver&) = delete;
  VtcSolver& operator=(const VtcSolver&) = delete;
  ~VtcSolver() {
    if (solves_counter_ != nullptr) {
      solves_counter_->add(solves_);
      iterations_counter_->add(iterations_);
    }
  }

  /// V_out at `vin`, Newton from `guess` inside the [0, V_dd] bracket.
  double output(double vin, double guess) {
    const double vdd = inv_.vdd;
    const auto balance = [&](double vout) {
      const compact::DeviceEval n = inv_.nfet->evaluate(vin, vout);
      const compact::DeviceEval p = inv_.pfet->evaluate(vdd - vin, vdd - vout);
      return opt::ValueSlope{n.id - p.id, n.gds + p.gds};
    };
    const opt::RootResult root =
        opt::safeguarded_newton(balance, 0.0, vdd, 1e-13 * vdd, guess);
    ++solves_;
    iterations_ += root.iterations;
    return root.x;
  }

  /// Implicit-function gain dV_out/dV_in = -(g_m,n + g_m,p) /
  /// (g_ds,n + g_ds,p) at the solved point (vin, vout).
  double gain(double vin, double vout) const {
    const double vdd = inv_.vdd;
    const compact::DeviceEval n = inv_.nfet->evaluate(vin, vout);
    const compact::DeviceEval p = inv_.pfet->evaluate(vdd - vin, vdd - vout);
    return -(n.gm + p.gm) / (n.gds + p.gds);
  }

 private:
  const InverterDevices& inv_;
  obs::Counter* solves_counter_ = nullptr;
  obs::Counter* iterations_counter_ = nullptr;
  std::uint64_t solves_ = 0;
  std::uint64_t iterations_ = 0;
};

}  // namespace

double vtc_output(const InverterDevices& inv, double vin) {
  return VtcSolver(inv).output(vin, 0.5 * inv.vdd);
}

VtcCurve compute_vtc(const InverterDevices& inv, std::size_t points) {
  if (points < 2) {
    throw std::invalid_argument("compute_vtc: need at least 2 points");
  }
  VtcCurve curve;
  curve.vin.resize(points);
  curve.vout.resize(points);
  VtcSolver solver(inv);
  double guess = 0.5 * inv.vdd;
  for (std::size_t i = 0; i < points; ++i) {
    const double vin =
        inv.vdd * static_cast<double>(i) / static_cast<double>(points - 1);
    curve.vin[i] = vin;
    curve.vout[i] = solver.output(vin, guess);
    guess = curve.vout[i];  // warm start along the sweep
  }
  return curve;
}

double vtc_gain(const InverterDevices& inv, double vin) {
  VtcSolver solver(inv);
  return solver.gain(vin, solver.output(vin, 0.5 * inv.vdd));
}

NoiseMargins noise_margins(const InverterDevices& inv) {
  const double vdd = inv.vdd;
  VtcSolver solver(inv);
  // Every solve warm-starts from the previous one's V_out.
  double vout = 0.5 * vdd;
  const auto gain_at = [&](double vin) {
    vout = solver.output(vin, vout);
    return solver.gain(vin, vout);
  };

  // Locate the switching point (most negative gain) with a coarse scan.
  const std::size_t scan = 160;
  double best_gain = 0.0;
  double v_switch = 0.5 * vdd;
  for (std::size_t i = 1; i + 1 < scan; ++i) {
    const double v = vdd * static_cast<double>(i) / static_cast<double>(scan);
    const double g = gain_at(v);
    if (g < best_gain) {
      best_gain = g;
      v_switch = v;
    }
  }
  if (best_gain > -1.0) {
    throw std::runtime_error(
        "noise_margins: inverter gain never reaches -1 (no regenerative "
        "transfer at this supply)");
  }

  // gain(v) + 1 changes sign once on each side of the switching point.
  const auto gain_plus_one = [&](double v) { return gain_at(v) + 1.0; };
  const auto lo_root = opt::bisect(gain_plus_one, 1e-6 * vdd, v_switch,
                                   1e-9 * vdd, 200);
  NoiseMargins nm;
  nm.vil = lo_root.x;
  nm.voh = solver.output(nm.vil, vout);
  const auto hi_root = opt::bisect(gain_plus_one, v_switch, vdd * (1 - 1e-6),
                                   1e-9 * vdd, 200);
  nm.vih = hi_root.x;
  nm.vol = solver.output(nm.vih, vout);
  nm.nml = nm.vil - nm.vol;
  nm.nmh = nm.voh - nm.vih;
  nm.snm = std::min(nm.nml, nm.nmh);
  nm.peak_gain = best_gain;
  return nm;
}

namespace {

/// Linear interpolation of y(x) on a sampled monotone-x curve.
double interp(const std::vector<double>& x, const std::vector<double>& y,
              double xq) {
  const auto it = std::lower_bound(x.begin(), x.end(), xq);
  if (it == x.begin()) return y.front();
  if (it == x.end()) return y.back();
  const std::size_t hi = static_cast<std::size_t>(it - x.begin());
  const std::size_t lo = hi - 1;
  const double t = (xq - x[lo]) / (x[hi] - x[lo]);
  return y[lo] + t * (y[hi] - y[lo]);
}

}  // namespace

namespace {

/// Largest square inscribed in the upper-left butterfly eye of the latch
/// whose two transfer functions are f1 (drives y from x) and f2 (drives x
/// from y), both decreasing. A square of side s anchored at storage state
/// y0 fits iff, with its left edge on the mirrored curve (x0 = f2(y0)),
/// its top stays below the forward curve: y0 + s <= f1(x0 + s). f1 is
/// decreasing, so the residual s - (f1(f2(y0)+s) - y0) is increasing in s
/// and the maximal side solves it by bisection.
double max_square_in_eye(const VtcCurve& forward, const VtcCurve& mirrored,
                         double vdd) {
  const auto f1 = [&](double x) {
    return interp(forward.vin, forward.vout, x);
  };
  const auto f2 = [&](double y) {
    return interp(mirrored.vin, mirrored.vout, y);
  };
  double best = 0.0;
  const std::size_t samples = 240;
  for (std::size_t k = 0; k < samples; ++k) {
    const double y0 = vdd * static_cast<double>(k) / samples;
    const double x0 = f2(y0);
    // Bisect on the square side.
    double lo = 0.0;
    double hi = vdd;
    const auto fits = [&](double s) { return y0 + s <= f1(x0 + s); };
    if (!fits(0.0)) continue;  // y0 already above the forward curve
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (fits(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    best = std::max(best, lo);
  }
  return best;
}

}  // namespace

double butterfly_snm(const VtcCurve& forward, const VtcCurve& mirrored) {
  if (forward.vin.size() < 2 || mirrored.vin.size() < 2) {
    throw std::invalid_argument("butterfly_snm: curves too short");
  }
  const double vdd =
      std::max(forward.vin.back(), mirrored.vin.back());
  // Upper-left eye: forward on top. Lower-right eye: swap the roles.
  const double upper = max_square_in_eye(forward, mirrored, vdd);
  const double lower = max_square_in_eye(mirrored, forward, vdd);
  return std::min(upper, lower);
}

}  // namespace subscale::circuits
