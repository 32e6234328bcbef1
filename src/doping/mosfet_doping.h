#pragma once

/// \file mosfet_doping.h
/// Geometry description of the paper's bulk-MOSFET scaling model
/// (Fig. 1a) and construction of the corresponding 2-D doping profile:
/// uniformly doped substrate + n+ (p+) source/drain with lateral straggle
/// + a pair of 2-D Gaussian halo bumps at the channel edges.
///
/// Scaling rule (paper Sec. 2.2): "All physical dimensions other than Tox
/// (source/drain junction depth, lateral source/drain diffusion, halo
/// dimensions, etc.) scale in proportion to Lpoly" for the super-Vth
/// strategy; under the sub-Vth strategy these dimensions keep shrinking
/// 30 %/generation while Lpoly scales more slowly (Sec. 3.2), so the
/// geometry carries an explicit `feature_shrink` independent of Lpoly.

#include <memory>

#include "doping/profile.h"

namespace subscale::doping {

enum class Polarity { kNfet, kPfet };

/// Cross-section geometry of one MOSFET [all lengths in metres].
///
/// Coordinates: x = 0 at channel centre; y = 0 at the Si/SiO2 interface,
/// increasing into the substrate. The gate spans [-lpoly/2, +lpoly/2];
/// source/drain metallurgical boxes start at -+(lpoly/2 - lov).
struct MosfetGeometry {
  double lpoly = 0.0;  ///< physical (post-etch) gate length
  double tox = 0.0;    ///< gate oxide thickness
  double lov = 0.0;    ///< gate/source-drain overlap per side
  double xj = 0.0;     ///< source/drain junction depth
  double lsd = 0.0;    ///< source/drain region length beyond the gate edge
  double substrate_depth = 0.0;  ///< simulated silicon depth
  double halo_depth = 0.0;       ///< y-position of the halo peak
  double halo_sigma_x = 0.0;     ///< lateral halo straggle
  double halo_sigma_y = 0.0;     ///< vertical halo straggle
  double sd_straggle_x = 0.0;    ///< lateral S/D diffusion straggle
  double sd_straggle_y = 0.0;    ///< vertical S/D diffusion straggle
  double feature_shrink = 1.0;   ///< the node's 0.7^generation factor
                                 ///< (recorded so circuit-level loads that
                                 ///< scale with wiring can use it)

  /// Effective (electrical) channel length: gate length minus overlaps.
  double leff() const { return lpoly - 2.0 * lov; }
  /// x position of the source-side metallurgical junction (< 0).
  double source_edge() const { return -0.5 * leff(); }
  /// Total simulated lateral extent.
  double device_length() const { return leff() + 2.0 * lov + 2.0 * lsd; }

  /// Reference geometry of the paper's 90nm-node device (lpoly = 65 nm,
  /// tox = 2.1 nm), with every other feature scaled by `feature_shrink`
  /// (1.0 at 90nm, 0.7 at 65nm, 0.49 at 45nm, 0.343 at 32nm) and the gate
  /// given explicitly — the two scaling strategies differ exactly in how
  /// they pick `lpoly`.
  static MosfetGeometry scaled(double lpoly, double tox, double feature_shrink);
};

/// Doping levels of the MOSFET profile [m^-3].
struct MosfetDopingLevels {
  double nsub = 0.0;     ///< uniform substrate (channel-type) doping
  double np_halo = 0.0;  ///< PEAK halo doping ABOVE the substrate level
  double nsd = 1e26;     ///< source/drain peak doping (1e20 cm^-3)
};

/// Assemble the full doping profile of the device.
/// For an NFET: acceptor substrate + donor S/D + acceptor halos;
/// for a PFET the species are mirrored.
std::shared_ptr<const DopingProfile> make_mosfet_profile(
    Polarity polarity, const MosfetGeometry& geometry,
    const MosfetDopingLevels& levels);

/// Closed-form average over the channel (|x| < leff/2, at the surface) of
/// the halo pair's contribution, as a fraction of the peak np_halo:
///   f = (2 sx sqrt(pi/2) / leff) * erf(leff / (sqrt(2) sx)) * d
/// with d = exp(-halo_depth^2 / (2 halo_sigma_y^2)) the vertical overlap
/// of the halo with the surface channel. Multiplying by np_halo and
/// adding nsub gives the effective channel doping N_eff the compact
/// model's S_S (Eq. 2b) and V_th expressions use.
double halo_channel_fraction(const MosfetGeometry& geometry);

/// Effective channel doping N_eff = nsub + np_halo * halo_channel_fraction
/// [m^-3]; the single most important derived quantity of the paper's
/// device model (sets W_dep and hence S_S).
double effective_channel_doping(const MosfetGeometry& geometry,
                                const MosfetDopingLevels& levels);

}  // namespace subscale::doping
