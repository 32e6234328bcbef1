#include "physics/fermi.h"

#include <cmath>

namespace subscale::physics {

BernoulliPair bernoulli_pair(double x) {
  const double ax = std::abs(x);
  double b = 0.0;  // B(|x|)
  if (ax < 1e-10) {
    b = 1.0 - ax / 2.0;  // B(x) ~ 1 - x/2 + x^2/12
  } else if (ax < 1e-4) {
    b = 1.0 - ax / 2.0 + ax * ax / 12.0;
  } else if (ax > 700.0) {
    b = ax * std::exp(-ax);  // exp(x) overflows; B(x) -> x e^{-x}
  } else {
    b = ax / std::expm1(ax);
  }
  const double b_minus = b + ax;  // B(-|x|)
  return x < 0.0 ? BernoulliPair{b_minus, b} : BernoulliPair{b, b_minus};
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
