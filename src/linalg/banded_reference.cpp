#include "linalg/banded_reference.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace subscale::linalg {

ReferenceBandedLu::ReferenceBandedLu(const BandedMatrix& a)
    : n_(a.size()),
      kl_(a.lower_bandwidth()),
      ku_(a.upper_bandwidth()),
      dense_(n_ * n_, 0.0) {
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c_lo = (r > kl_) ? r - kl_ : 0;
    const std::size_t c_hi = std::min(n_ - 1, r + ku_);
    for (std::size_t c = c_lo; c <= c_hi; ++c) at(r, c) = a.at(r, c);
  }

  for (std::size_t k = 0; k < n_; ++k) {
    const double pivot = at(k, k);
    if (pivot == 0.0 || !std::isfinite(pivot)) {
      throw std::runtime_error("ReferenceBandedLu: zero or non-finite pivot");
    }
    const std::size_t r_hi = std::min(n_ - 1, k + kl_);
    const std::size_t c_hi = std::min(n_ - 1, k + ku_);
    for (std::size_t r = k + 1; r <= r_hi; ++r) at(r, k) /= pivot;
    // Row-outer trailing update; skips the same zero-u columns as the
    // vectorized version so both perform identical element operations.
    for (std::size_t r = k + 1; r <= r_hi; ++r) {
      const double factor = at(r, k);
      for (std::size_t c = k + 1; c <= c_hi; ++c) {
        const double u = at(k, c);
        if (u == 0.0) continue;
        at(r, c) -= factor * u;
      }
    }
  }
}

std::vector<double> ReferenceBandedLu::solve(const std::vector<double>& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("ReferenceBandedLu::solve: size mismatch");
  }
  std::vector<double> x = b;
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t r_hi = std::min(n_ - 1, k + kl_);
    for (std::size_t r = k + 1; r <= r_hi; ++r) {
      x[r] -= at(r, k) * x[k];
    }
  }
  for (std::size_t kk = n_; kk-- > 0;) {
    const std::size_t c_hi = std::min(n_ - 1, kk + ku_);
    double acc = x[kk];
    for (std::size_t c = kk + 1; c <= c_hi; ++c) {
      acc -= at(kk, c) * x[c];
    }
    x[kk] = acc / at(kk, kk);
  }
  return x;
}

BandedMatrix stencil_banded(std::size_t nx, std::size_t ny, unsigned seed) {
  constexpr std::size_t kOxideRows = 3;
  if (nx < 4 || ny < kOxideRows + 2) {
    throw std::invalid_argument("stencil_banded: grid too small");
  }
  const std::size_t n = nx * ny;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto node = [ny](std::size_t i, std::size_t j) { return i * ny + j; };
  const auto contact = [&](std::size_t i, std::size_t j) {
    return j + 1 == ny ||
           (j == kOxideRows && (i < nx / 4 || i >= nx - nx / 4));
  };
  // B(x) = x / (e^x - 1); the drops stay far from expm1's overflow.
  const auto bernoulli = [](double x) {
    return x == 0.0 ? 1.0 : x / std::expm1(x);
  };
  // Per edge, from node (i, j) to (i+1, j) and to (i, j+1): a conductance
  // and a potential drop in thermal voltages, read negated from the far
  // end, as a Scharfetter–Gummel edge is.
  const auto drop = [&] {
    const double reach = unit(rng) < 0.03 ? 8.0 : 0.5;
    return reach * (2.0 * unit(rng) - 1.0);
  };
  std::vector<double> k_x(n), k_y(n), drop_x(n), drop_y(n);
  for (std::size_t e = 0; e < n; ++e) {
    k_x[e] = 0.5 + unit(rng);
    k_y[e] = 0.5 + unit(rng);
    drop_x[e] = drop();
    drop_y[e] = drop();
  }

  BandedMatrix a(n, ny, ny);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const std::size_t r = node(i, j);
      if (j < kOxideRows || contact(i, j)) {
        a.at(r, r) = 1.0;
        continue;
      }
      double diag = 1e-3 * unit(rng);  // recombination
      const auto couple = [&](std::size_t nb, double k, double drop) {
        const std::size_t nb_j = nb % ny;
        if (nb_j < kOxideRows) return;  // no flux into the oxide
        diag += k * bernoulli(drop);
        if (!contact(nb / ny, nb_j)) a.at(r, nb) = -(k * bernoulli(-drop));
      };
      if (i > 0) {
        const std::size_t w = node(i - 1, j);
        couple(w, k_x[w], -drop_x[w]);
      }
      if (i + 1 < nx) couple(node(i + 1, j), k_x[r], drop_x[r]);
      if (j > 0) {
        const std::size_t s = node(i, j - 1);
        couple(s, k_y[s], -drop_y[s]);
      }
      if (j + 1 < ny) couple(node(i, j + 1), k_y[r], drop_y[r]);
      a.at(r, r) = diag;
    }
  }
  return a;
}

BandedMatrix poisson_stencil_banded(std::size_t n, std::size_t bw,
                                    unsigned seed) {
  constexpr std::size_t kOxideRows = 3;
  if (bw < kOxideRows + 2 || n < 4 * bw) {
    throw std::invalid_argument("poisson_stencil_banded: grid too small");
  }
  const std::size_t columns = (n + bw - 1) / bw;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto dirichlet = [&](std::size_t r) {
    const std::size_t i = r / bw;
    const std::size_t j = r % bw;
    return j + 1 == bw ||
           (j == 0 && i >= columns / 4 && i < columns - columns / 4);
  };
  // One conductance per edge, to r + 1 and to r + bw: permittivity
  // (oxide 3.9, silicon 11.7) times a cell aspect ratio in [0.05, 20].
  const auto conductance = [&](std::size_t r) {
    const double eps = r % bw < kOxideRows ? 3.9 : 11.7;
    return eps * std::pow(10.0, 2.6 * unit(rng) - 1.3);
  };
  std::vector<double> k_y(n), k_x(n);
  for (std::size_t r = 0; r < n; ++r) {
    k_y[r] = conductance(r);
    k_x[r] = conductance(r);
  }

  BandedMatrix a(n, bw, bw);
  for (std::size_t r = 0; r < n; ++r) {
    if (dirichlet(r)) {
      a.at(r, r) = 1.0;
      continue;
    }
    double diag = 0.0;
    const auto couple = [&](std::size_t nb, double k) {
      diag -= k;
      if (!dirichlet(nb)) a.at(r, nb) = k;
    };
    const std::size_t j = r % bw;
    if (j > 0) couple(r - 1, k_y[r - 1]);
    if (j + 1 < bw && r + 1 < n) couple(r + 1, k_y[r]);
    if (r >= bw) couple(r - bw, k_x[r - bw]);
    if (r + bw < n) couple(r + bw, k_x[r]);
    if (j >= kOxideRows) diag -= 11.7 * std::pow(10.0, 11.0 * unit(rng) - 10.0);
    a.at(r, r) = diag;
  }
  return a;
}

SymmetricBandedMatrix lower_triangle(const BandedMatrix& a) {
  const std::size_t n = a.size();
  const std::size_t kl = a.lower_bandwidth();
  SymmetricBandedMatrix s(n, kl);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = c; r <= std::min(n - 1, c + kl); ++r) {
      s.at(r, c) = a.at(r, c);
    }
  }
  return s;
}

}  // namespace subscale::linalg
