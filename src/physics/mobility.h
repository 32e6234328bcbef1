#pragma once

/// \file mobility.h
/// Carrier mobility models used by both the compact device model and the
/// 2-D TCAD substrate:
///  * Masetti doping-dependent low-field mobility,
///  * Caughey–Thomas high-field (velocity-saturation) reduction,
///  * a simple vertical-field (effective-field) surface degradation.

namespace subscale::physics {

enum class Carrier { kElectron, kHole };

/// Masetti low-field mobility as a function of total doping [m^2/Vs].
/// \param total_doping  |Na + Nd| at the point of interest [m^-3].
double masetti_mobility(Carrier carrier, double total_doping);

/// Saturation velocity [m/s] (Canali-style temperature dependence).
double saturation_velocity(Carrier carrier, double temperature_kelvin);

/// Caughey–Thomas field-dependent mobility [m^2/Vs] at saturation
/// velocity `vsat` [m/s]:
/// mu(E) = mu0 / (1 + (mu0*E/vsat)^beta)^(1/beta), beta=2 (n), 1 (p),
/// evaluated in closed form (a sqrt for electrons, a quotient for holes).
/// Callers evaluating many edges at one temperature compute
/// saturation_velocity once and call this form.
double caughey_thomas_mobility_vsat(Carrier carrier,
                                    double low_field_mobility,
                                    double parallel_field, double vsat);

/// caughey_thomas_mobility_vsat at saturation_velocity(carrier, T).
double caughey_thomas_mobility(Carrier carrier, double low_field_mobility,
                               double parallel_field,
                               double temperature_kelvin);

/// Surface (vertical effective field) mobility degradation factor in
/// [0, 1]: 1 / (1 + (E_eff/E_ref)^nu). When `slope` is non-null it also
/// receives the factor's derivative with respect to E_eff [m/V].
double surface_degradation(Carrier carrier, double effective_normal_field,
                           double* slope = nullptr);

}  // namespace subscale::physics
