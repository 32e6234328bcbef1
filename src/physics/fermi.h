#pragma once

/// \file fermi.h
/// Carrier-statistics helpers shared by the TCAD discretization:
/// Boltzmann carrier densities from potentials and the Bernoulli function
/// used in the Scharfetter–Gummel flux.

namespace subscale::physics {

/// The Bernoulli function B(x) = x / (exp(x) - 1) at x and at -x.
struct BernoulliPair {
  double at_x;        ///< B(x)
  double at_minus_x;  ///< B(-x)
};

/// B(x) and B(-x), the pair a Scharfetter–Gummel edge needs, from one
/// evaluation at |x| (one expm1) and the identity B(-|x|) = B(|x|) + |x|.
/// B(|x|) has a series branch near 0 and an overflow-safe branch past
/// |x| = 700, where B(-|x|) comes out as |x| exactly.
BernoulliPair bernoulli_pair(double x);

/// Electron density n = ni * exp((psi - phi_n)/vT) under Boltzmann
/// statistics, with potentials referenced to the intrinsic level [m^-3].
double electron_density(double psi, double phi_n, double ni, double vt);

/// Hole density p = ni * exp((phi_p - psi)/vT) [m^-3].
double hole_density(double psi, double phi_p, double ni, double vt);

/// Equilibrium potential of a charge-neutral region with net doping
/// N = Nd - Na (signed) [V]: psi = vT * asinh(N / (2 ni)).
double neutral_potential(double net_doping, double ni, double vt);

}  // namespace subscale::physics
