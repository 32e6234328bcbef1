#include "physics/fermi.h"

#include <cmath>

namespace subscale::physics {

double bernoulli(double x) {
  const double ax = std::abs(x);
  if (ax < 1e-10) {
    return 1.0 - x / 2.0;  // B(x) ~ 1 - x/2 + x^2/12
  }
  if (ax < 1e-4) {
    return 1.0 - x / 2.0 + x * x / 12.0;
  }
  if (x > 700.0) {
    return x * std::exp(-x);  // exp(x) overflows; B(x) -> x e^{-x}
  }
  if (x < -700.0) {
    return -x;  // exp(x) -> 0; B(x) -> -x
  }
  return x / std::expm1(x);
}

double electron_density(double psi, double phi_n, double ni, double vt) {
  return ni * std::exp((psi - phi_n) / vt);
}

double hole_density(double psi, double phi_p, double ni, double vt) {
  return ni * std::exp((phi_p - psi) / vt);
}

double neutral_potential(double net_doping, double ni, double vt) {
  return vt * std::asinh(net_doping / (2.0 * ni));
}

}  // namespace subscale::physics
