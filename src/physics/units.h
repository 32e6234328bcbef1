#pragma once

/// \file units.h
/// Explicit unit conversions between the library's SI internals and the
/// units the paper quotes (nm, cm^-3, pA/um, mV/dec, fF/um).

namespace subscale::units {

// ---- length -------------------------------------------------------------

/// Nanometres -> metres.
inline constexpr double nm(double v) { return v * 1e-9; }
/// Micrometres -> metres.
inline constexpr double um(double v) { return v * 1e-6; }
/// Metres -> nanometres.
inline constexpr double to_nm(double metres) { return metres * 1e9; }

// ---- doping concentration -----------------------------------------------

/// cm^-3 -> m^-3 (the paper tabulates doping in cm^-3).
inline constexpr double per_cm3(double v) { return v * 1e6; }
/// m^-3 -> cm^-3.
inline constexpr double to_per_cm3(double per_m3) { return per_m3 * 1e-6; }

// ---- current ------------------------------------------------------------

/// pA/um -> A/m (width-normalized current, the paper's leakage unit).
inline constexpr double pA_per_um(double v) { return v * 1e-12 / 1e-6; }
/// A/m -> pA/um.
inline constexpr double to_pA_per_um(double a_per_m) {
  return a_per_m * 1e12 * 1e-6;
}
/// A/m -> uA/um.
inline constexpr double to_uA_per_um(double a_per_m) {
  return a_per_m * 1e6 * 1e-6;
}

// ---- voltage ------------------------------------------------------------

/// Millivolts -> volts.
inline constexpr double mV(double v) { return v * 1e-3; }
/// Volts -> millivolts.
inline constexpr double to_mV(double volts) { return volts * 1e3; }

// ---- subthreshold slope ---------------------------------------------------

/// V/decade -> mV/decade (the conventional unit for S_S).
inline constexpr double to_mV_per_dec(double v_per_dec) {
  return v_per_dec * 1e3;
}

// ---- capacitance ----------------------------------------------------------

/// fF/um -> F/m (width-normalized capacitance).
inline constexpr double fF_per_um(double v) { return v * 1e-15 / 1e-6; }
/// F/m -> fF/um.
inline constexpr double to_fF_per_um(double f_per_m) {
  return f_per_m * 1e15 * 1e-6;
}
/// F -> fF.
inline constexpr double to_fF(double farad) { return farad * 1e15; }
/// aF -> F.
inline constexpr double aF(double v) { return v * 1e-18; }

// ---- time -----------------------------------------------------------------

/// Picoseconds -> seconds.
inline constexpr double ps(double v) { return v * 1e-12; }
/// Seconds -> picoseconds.
inline constexpr double to_ps(double s) { return s * 1e12; }
/// Seconds -> nanoseconds.
inline constexpr double to_ns(double s) { return s * 1e9; }

// ---- energy -----------------------------------------------------------------

/// Joules -> femtojoules.
inline constexpr double to_fJ(double j) { return j * 1e15; }
/// Joules -> attojoules.
inline constexpr double to_aJ(double j) { return j * 1e18; }

}  // namespace subscale::units
