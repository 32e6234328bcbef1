#pragma once

/// \file silicon.h
/// Bulk-silicon material model: bandgap, intrinsic carrier density,
/// Fermi/bulk potentials and depletion quantities used throughout the
/// compact and TCAD device models.

namespace subscale::physics {

/// Temperature-dependent silicon bandgap [eV] (Varshni fit, standard
/// parameters: Eg(0)=1.1696 eV, alpha=4.73e-4 eV/K, beta=636 K).
double silicon_bandgap_ev(double temperature_kelvin);

/// Intrinsic carrier concentration of silicon [m^-3].
///
/// Uses n_i = sqrt(Nc*Nv) * exp(-Eg/2kT) with Nc, Nv ∝ T^{3/2} anchored to
/// the accepted n_i(300 K) ≈ 1.0e16 m^-3 (1.0e10 cm^-3, Green's value; the
/// textbook 1.45e10 cm^-3 is available via intrinsic_density_legacy).
double intrinsic_density(double temperature_kelvin);

/// Legacy textbook value n_i(300K) = 1.45e10 cm^-3 scaled with temperature;
/// the paper's reference [19] (Taur & Ning) uses this anchor, so the compact
/// model defaults to it for fidelity with the paper's equations.
double intrinsic_density_legacy(double temperature_kelvin);

// The n_i-dependent helpers below come in two forms: the T-only form
// evaluates n_i = intrinsic_density_legacy(T) and forwards to the form
// taking it explicitly, which a caller evaluating many of them at one
// temperature (the compact model's construction) uses to compute n_i once.

/// Bulk Fermi potential phi_F = vT * ln(Na/ni) of p-type silicon [V].
/// \param acceptor_density  net acceptor doping [m^-3], must be > ni.
double bulk_potential(double acceptor_density, double temperature_kelvin);
double bulk_potential(double acceptor_density, double temperature_kelvin,
                      double ni);

/// Surface potential at classical threshold, 2*phi_F [V].
double surface_potential_at_threshold(double acceptor_density,
                                      double temperature_kelvin);
double surface_potential_at_threshold(double acceptor_density,
                                      double temperature_kelvin, double ni);

/// Depletion-region width under a gate at surface potential psi_s [m]:
/// W = sqrt(2*eps_si*psi_s/(q*Na)).
double depletion_width(double acceptor_density, double surface_potential);

/// Maximum depletion width at threshold (psi_s = 2*phi_F) [m].
double max_depletion_width(double acceptor_density, double temperature_kelvin);
double max_depletion_width(double acceptor_density, double temperature_kelvin,
                           double ni);

/// Depletion charge per unit area at threshold [C/m^2]:
/// Q_dep = sqrt(2*q*eps_si*Na*2phi_F).
double depletion_charge(double acceptor_density, double temperature_kelvin);
double depletion_charge(double acceptor_density, double temperature_kelvin,
                        double ni);

/// Depletion capacitance per unit area C_dep = eps_si / W_dep [F/m^2].
double depletion_capacitance(double acceptor_density,
                             double temperature_kelvin);

/// Oxide capacitance per unit area C_ox = eps_ox / t_ox [F/m^2].
double oxide_capacitance(double oxide_thickness);

/// Built-in potential of an abrupt junction with densities na, nd [V].
double builtin_potential(double na, double nd, double temperature_kelvin);
double builtin_potential(double na, double nd, double temperature_kelvin,
                         double ni);

/// Flat-band voltage of an n+ poly gate over p-type silicon [V].
/// VFB = -(Eg/2 + phi_F) for a degenerate n+ poly gate (work function at
/// the conduction band edge), ignoring oxide fixed charge.
double flatband_voltage_npoly_psub(double acceptor_density,
                                   double temperature_kelvin);
double flatband_voltage_npoly_psub(double acceptor_density,
                                   double temperature_kelvin, double ni);

}  // namespace subscale::physics
