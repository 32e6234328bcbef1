#include "linalg/banded.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::linalg {

namespace {

/// y[i] -= x[i] * a for i in [0, n): the one inner loop of the banded
/// elimination and of the forward solve. The operands never overlap
/// (two distinct band columns, or a band column and the solution
/// vector), and `__restrict` says so; with that and the 4-wide
/// body GCC's -O2 vectorizer emits packed mulpd/subpd, where two
/// possibly aliasing columns of one array kept the plain loop scalar.
/// Every element still gets exactly one IEEE multiply and one subtract
/// with the same operands (ISO C++ mode contracts nothing into an FMA),
/// so the result is bitwise equal to the element-wise loop. The 2-wide
/// step keeps the packed path for all but one element of the paper
/// devices' 21-23-row columns; it indexes from rebased pointers because
/// GCC's block vectorizer cannot tell that y[i] and y[i + 1] are
/// adjacent when i is the loop's exit value.
void sub_scaled(double* __restrict y, const double* __restrict x, double a,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] -= x[i] * a;
    y[i + 1] -= x[i + 1] * a;
    y[i + 2] -= x[i + 2] * a;
    y[i + 3] -= x[i + 3] * a;
  }
  if (i + 2 <= n) {
    double* __restrict y2 = y + i;
    const double* __restrict x2 = x + i;
    y2[0] -= x2[0] * a;
    y2[1] -= x2[1] * a;
    i += 2;
  }
  for (; i < n; ++i) y[i] -= x[i] * a;
}

/// x[i] /= d for i in [0, n): turns one column below the pivot into
/// multipliers. The same shape as sub_scaled gets packed divpd, which
/// rounds each lane correctly, so every entry is the scalar quotient.
void divide(double* __restrict x, double d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    x[i] /= d;
    x[i + 1] /= d;
    x[i + 2] /= d;
    x[i + 3] /= d;
  }
  if (i + 2 <= n) {
    double* __restrict x2 = x + i;
    x2[0] /= d;
    x2[1] /= d;
    i += 2;
  }
  for (; i < n; ++i) x[i] /= d;
}

}  // namespace

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ldab_(kl + ku + 1), ab_(ldab_ * n, 0.0) {
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

void banded_lu_factor_in_place(BandedMatrix& a) {
  const std::size_t n = a.n_;
  const std::size_t kl = a.kl_;
  const std::size_t ku = a.ku_;
  double* ab = a.ab_.data();
  const std::size_t ldab = a.ldab_;
  // Right-looking, column-outer / row-inner: column k's entries below
  // the pivot become L's multipliers, and each later column c within
  // row k's reach loses u = (k, c) times them, one unit-stride
  // sub_scaled over the column. Every element receives exactly one
  // `a -= l * u` per step with the same operands as the textbook
  // row-outer loop nest, so the factorization is bitwise identical to
  // the reference (see banded_reference.h and the bench_kernels
  // assertions). A zero u skips its column there too; an identity row
  // (stencil_banded's oxide and contact rows) has nothing but zeros
  // right of the diagonal, so its step updates nothing.
  for (std::size_t k = 0; k < n; ++k) {
    double* colk = ab + k * ldab + ku;  // colk[i] = storage(k+i, k)
    const double pivot = colk[0];
    if (pivot == 0.0 || !std::isfinite(pivot)) {
      throw std::runtime_error("BandedLu: zero or non-finite pivot");
    }
    const std::size_t nr = std::min(n - 1, k + kl) - k;  // rows below
    divide(colk + 1, pivot, nr);
    const std::size_t c_hi = std::min(n - 1, k + ku);
    for (std::size_t c = k + 1; c <= c_hi; ++c) {
      double* colc = ab + c * ldab + (ku + k - c);  // colc[i] = storage(k+i, c)
      const double u = colc[0];
      if (u == 0.0) continue;
      sub_scaled(colc + 1, colk + 1, u, nr);
    }
  }
}

void banded_lu_solve(const BandedMatrix& lu, std::vector<double>& x) {
  const std::size_t n = lu.n_;
  if (x.size() != n) {
    throw std::invalid_argument("banded_lu_solve: size mismatch");
  }
  const std::size_t kl = lu.kl_;
  const std::size_t ku = lu.ku_;

  // Forward-substitute with unit-lower L. The multipliers for column k
  // sit contiguously in band storage, so the inner loop is one
  // unit-stride sub_scaled (same ops as the element-wise form). The
  // back substitution's dot product stays a scalar left-to-right sum:
  // vectorizing it would reorder the additions.
  const double* ab = lu.ab_.data();
  const std::size_t ldab = lu.ldab_;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t nr = std::min(n - 1, k + kl) - k;
    const double* colk = ab + k * ldab + ku;  // colk[i] = storage(k+i, k)
    sub_scaled(x.data() + k + 1, colk + 1, x[k], nr);
  }
  // Back substitution with U.
  for (std::size_t kk = n; kk-- > 0;) {
    const std::size_t c_hi = std::min(n - 1, kk + ku);
    double acc = x[kk];
    for (std::size_t c = kk + 1; c <= c_hi; ++c) {
      acc -= lu.storage(kk, c) * x[c];
    }
    x[kk] = acc / lu.storage(kk, kk);
  }
}

SymmetricBandedMatrix::SymmetricBandedMatrix(std::size_t n, std::size_t kl)
    : n_(n), kl_(kl), ab_((kl + 1) * n, 0.0) {
  if (n == 0) {
    throw std::invalid_argument("SymmetricBandedMatrix: n must be > 0");
  }
}

std::size_t SymmetricBandedMatrix::offset(std::size_t r, std::size_t c) const {
  if (r >= n_ || c > r || r - c > kl_) {
    throw std::out_of_range(
        "SymmetricBandedMatrix::at: entry outside the lower band");
  }
  return c * (kl_ + 1) + (r - c);
}

void SymmetricBandedMatrix::set_zero() {
  std::fill(ab_.begin(), ab_.end(), 0.0);
}

void banded_ldlt_factor_in_place(SymmetricBandedMatrix& a) {
  const std::size_t n = a.n_;
  const std::size_t ldab = a.kl_ + 1;
  double* ab = a.ab_.data();
  // Right-looking, column by column: column k's entries below the pivot
  // become L's multipliers l = a / d, and each later column c of the
  // band loses l_c * d times the multipliers from row c down, which is
  // the rank-1 update A22 -= d l lᵀ restricted to the lower triangle
  // (LAPACK dpbtf2's shape, with D in place of the square roots). Both
  // the column and the update are unit-stride, so `divide` and
  // `sub_scaled` carry them as they carry the LU. Without pivoting
  // nothing fills outside the band.
  for (std::size_t k = 0; k < n; ++k) {
    double* colk = ab + k * ldab;  // colk[i] = (k+i, k)
    const double d = colk[0];
    if (d == 0.0 || !std::isfinite(d)) {
      throw std::runtime_error("BandedLdlt: zero or non-finite pivot");
    }
    const std::size_t nr = std::min(n - 1, k + a.kl_) - k;
    divide(colk + 1, d, nr);
    for (std::size_t i = 1; i <= nr; ++i) {
      const double u = colk[i] * d;  // (k+i, k) before the division
      if (u == 0.0) continue;
      double* colc = ab + (k + i) * ldab;  // colc[j] = (k+i+j, k+i)
      sub_scaled(colc, colk + i, u, nr - i + 1);
    }
  }
}

void banded_ldlt_solve(const SymmetricBandedMatrix& ldlt,
                       std::vector<double>& x) {
  const std::size_t n = ldlt.n_;
  if (x.size() != n) {
    throw std::invalid_argument("banded_ldlt_solve: size mismatch");
  }
  const std::size_t ldab = ldlt.kl_ + 1;
  const double* ab = ldlt.ab_.data();
  // L y = b column by column, as the LU's forward pass; then
  // D Lᵀ x = y row by row from the bottom, where row k of Lᵀ is column k
  // of L, so each step is a unit-stride dot product over the band.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t nr = std::min(n - 1, k + ldlt.kl_) - k;
    sub_scaled(x.data() + k + 1, ab + k * ldab + 1, x[k], nr);
  }
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t nr = std::min(n - 1, k + ldlt.kl_) - k;
    const double* colk = ab + k * ldab;
    double acc = x[k] / colk[0];
    for (std::size_t i = 1; i <= nr; ++i) acc -= colk[i] * x[k + i];
    x[k] = acc;
  }
}

BandedLu::BandedLu(BandedMatrix a) : lu_(std::move(a)) {
  banded_lu_factor_in_place(lu_);
}

std::vector<double> BandedLu::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  banded_lu_solve(lu_, x);
  return x;
}

}  // namespace subscale::linalg
