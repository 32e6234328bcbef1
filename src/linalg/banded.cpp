#include "linalg/banded.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::linalg {

namespace {

/// y[i] -= x[i] * a for i in [0, n): the one inner loop of the banded
/// elimination and of the forward solve. The operands never overlap
/// (two band columns at least 2*kl + ku apart, or a band column and the
/// solution vector), and `__restrict` says so; with that and the 4-wide
/// body GCC's -O2 vectorizer emits packed mulpd/subpd, where two
/// possibly aliasing columns of one array kept the plain loop scalar.
/// Every element still gets exactly one IEEE multiply and one subtract
/// with the same operands (ISO C++ mode contracts nothing into an FMA),
/// so the result is bitwise equal to the element-wise loop.
void sub_scaled(double* __restrict y, const double* __restrict x, double a,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] -= x[i] * a;
    y[i + 1] -= x[i + 1] * a;
    y[i + 2] -= x[i + 2] * a;
    y[i + 3] -= x[i + 3] * a;
  }
  for (; i < n; ++i) y[i] -= x[i] * a;
}

}  // namespace

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ldab_(2 * kl + ku + 1), ab_(ldab_ * n, 0.0) {
  if (n == 0) throw std::invalid_argument("BandedMatrix: n must be > 0");
}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) return false;
  if (c > r) return (c - r) <= ku_;
  return (r - c) <= kl_;
}

double& BandedMatrix::at(std::size_t r, std::size_t c) {
  if (!in_band(r, c)) {
    throw std::out_of_range("BandedMatrix::at: entry outside band");
  }
  return storage(r, c);
}

double BandedMatrix::at(std::size_t r, std::size_t c) const {
  if (!in_band(r, c)) {
    throw std::out_of_range("BandedMatrix::at: entry outside band");
  }
  return storage(r, c);
}

void BandedMatrix::set_zero() { std::fill(ab_.begin(), ab_.end(), 0.0); }

std::vector<double> BandedMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("BandedMatrix::multiply: size mismatch");
  }
  std::vector<double> y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c_lo = (r > kl_) ? r - kl_ : 0;
    const std::size_t c_hi = std::min(n_ - 1, r + ku_);
    double acc = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) acc += storage(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

void banded_lu_factor_in_place(BandedMatrix& a,
                               std::vector<std::size_t>& ipiv,
                               std::vector<double>& row_scale) {
  const std::size_t n = a.n_;
  const std::size_t kl = a.kl_;
  const std::size_t ku = a.ku_;
  ipiv.resize(n);
  row_scale.resize(n);

  // Row equilibration: scale every row so its largest entry is ~1.
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c_lo = (r > kl) ? r - kl : 0;
    const std::size_t c_hi = std::min(n - 1, r + ku);
    double max_abs = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) {
      max_abs = std::max(max_abs, std::abs(a.storage(r, c)));
    }
    if (max_abs == 0.0 || !std::isfinite(max_abs)) {
      throw std::runtime_error("BandedLu: zero or non-finite row");
    }
    row_scale[r] = 1.0 / max_abs;
    for (std::size_t c = c_lo; c <= c_hi; ++c) {
      a.storage(r, c) *= row_scale[r];
    }
  }
  // During factorization with partial pivoting the upper bandwidth grows to
  // kl + ku; the storage already reserves that room (2*kl + ku + 1 rows).
  const std::size_t ku_eff = kl + ku;

  // Band storage is contiguous in r for fixed c (stride 1 down a column),
  // so the trailing rank-1 update runs column-outer / row-inner: each inner
  // loop is a unit-stride sub_scaled over one column. Every element
  // still receives exactly one `a -= factor * u` with the same operands as
  // the row-outer form, so the factorization is bitwise identical to the
  // reference (see banded_reference.h and the bench_kernels assertions).
  double* ab = a.ab_.data();
  const std::size_t ldab = a.ldab_;
  const std::size_t band0 = kl + ku;  // storage row of the main diagonal

  for (std::size_t k = 0; k < n; ++k) {
    // Pivot search in column k, rows k .. min(n-1, k+kl).
    const std::size_t r_hi = std::min(n - 1, k + kl);
    const std::size_t nr = r_hi - k;           // rows strictly below the pivot
    double* colk = ab + k * ldab + band0;      // colk[i] = storage(k+i, k)
    std::size_t pivot_off = 0;
    double pivot_mag = std::abs(colk[0]);
    for (std::size_t i = 1; i <= nr; ++i) {
      const double mag = std::abs(colk[i]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_off = i;
      }
    }
    if (pivot_mag == 0.0 || !std::isfinite(pivot_mag)) {
      throw std::runtime_error("BandedLu: singular matrix");
    }
    const std::size_t pivot_row = k + pivot_off;
    ipiv[k] = pivot_row;
    const std::size_t c_hi = std::min(n - 1, k + ku_eff);
    if (pivot_row != k) {
      // Swap rows k and pivot_row across the accessible band columns.
      for (std::size_t c = k; c <= c_hi; ++c) {
        double* colc = ab + c * ldab + (band0 + k - c);
        std::swap(colc[0], colc[pivot_off]);
      }
    }
    const double pivot = colk[0];
    for (std::size_t i = 1; i <= nr; ++i) colk[i] /= pivot;
    for (std::size_t c = k + 1; c <= c_hi; ++c) {
      double* colc = ab + c * ldab + (band0 + k - c);  // colc[i] = storage(k+i, c)
      const double u = colc[0];
      if (u == 0.0) continue;
      sub_scaled(colc + 1, colk + 1, u, nr);
    }
  }
}

void banded_lu_solve(const BandedMatrix& lu,
                     const std::vector<std::size_t>& ipiv,
                     const std::vector<double>& row_scale,
                     std::vector<double>& x) {
  const std::size_t n = lu.n_;
  if (x.size() != n || ipiv.size() != n || row_scale.size() != n) {
    throw std::invalid_argument("banded_lu_solve: size mismatch");
  }
  const std::size_t kl = lu.kl_;
  const std::size_t ku_eff = lu.kl_ + lu.ku_;
  for (std::size_t r = 0; r < n; ++r) x[r] *= row_scale[r];

  // Apply row interchanges and forward-substitute with unit-lower L. The
  // multipliers for column k sit contiguously in band storage, so the inner
  // loop is one unit-stride sub_scaled (same ops as the element-wise form).
  // The back substitution's dot product stays a scalar left-to-right sum:
  // vectorizing it would reorder the additions.
  const double* ab = lu.ab_.data();
  const std::size_t ldab = lu.ldab_;
  const std::size_t band0 = kl + lu.ku_;
  for (std::size_t k = 0; k < n; ++k) {
    if (ipiv[k] != k) std::swap(x[k], x[ipiv[k]]);
    const std::size_t nr = std::min(n - 1, k + kl) - k;
    const double* colk = ab + k * ldab + band0;  // colk[i] = storage(k+i, k)
    sub_scaled(x.data() + k + 1, colk + 1, x[k], nr);
  }
  // Back substitution with U.
  for (std::size_t kk = n; kk-- > 0;) {
    const std::size_t c_hi = std::min(n - 1, kk + ku_eff);
    double acc = x[kk];
    for (std::size_t c = kk + 1; c <= c_hi; ++c) {
      acc -= lu.storage(kk, c) * x[c];
    }
    x[kk] = acc / lu.storage(kk, kk);
  }
}

BandedLu::BandedLu(BandedMatrix a) : lu_(std::move(a)) {
  banded_lu_factor_in_place(lu_, ipiv_, row_scale_);
}

std::vector<double> BandedLu::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  banded_lu_solve(lu_, ipiv_, row_scale_, x);
  return x;
}

}  // namespace subscale::linalg
