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

/// m[i] = std::max(m[i], |x[i]|) for i in [0, n): gathers row maxima down
/// one band column, which holds consecutive rows. Shaped like sub_scaled
/// (`__restrict`, 4-wide body, scalar tail) so GCC's -O2 vectorizer emits
/// packed andpd/maxpd; maxpd returns its second operand when either is
/// NaN, which is std::max's rule (a NaN entry leaves m[i] as it was), so
/// each lane computes what the scalar std::max does.
void max_abs_into(double* __restrict m, const double* __restrict x,
                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m[i] = std::max(m[i], std::abs(x[i]));
    m[i + 1] = std::max(m[i + 1], std::abs(x[i + 1]));
    m[i + 2] = std::max(m[i + 2], std::abs(x[i + 2]));
    m[i + 3] = std::max(m[i + 3], std::abs(x[i + 3]));
  }
  for (; i < n; ++i) m[i] = std::max(m[i], std::abs(x[i]));
}

/// y[i] *= s[i] for i in [0, n): scales one band column by its rows'
/// scale factors, one IEEE multiply per entry.
void mul_into(double* __restrict y, const double* __restrict s,
              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] *= s[i];
    y[i + 1] *= s[i + 1];
    y[i + 2] *= s[i + 2];
    y[i + 3] *= s[i + 3];
  }
  for (; i < n; ++i) y[i] *= s[i];
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
  double* ab = a.ab_.data();
  const std::size_t ldab = a.ldab_;
  const std::size_t band0 = kl + ku;  // storage row of the main diagonal

  // Row equilibration: scale every row so its largest entry is ~1. Band
  // storage is contiguous in r for fixed c, so the row maxima are
  // gathered down the columns into row_scale, then turned into scales,
  // then applied down the columns. Columns go left to right, so row r
  // still meets its entries in increasing column order: every std::max
  // chain, NaN skipping included, and every entry's one multiply by its
  // row's scale are the row-by-row loop's. A zero or non-finite row
  // throws at the same first row, before any row is scaled.
  std::fill(row_scale.begin(), row_scale.end(), 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t r_lo = (c > ku) ? c - ku : 0;
    const std::size_t r_hi = std::min(n - 1, c + kl);
    max_abs_into(row_scale.data() + r_lo, ab + c * ldab + (band0 + r_lo - c),
                 r_hi - r_lo + 1);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const double max_abs = row_scale[r];
    if (max_abs == 0.0 || !std::isfinite(max_abs)) {
      throw std::runtime_error("BandedLu: zero or non-finite row");
    }
    row_scale[r] = 1.0 / max_abs;
  }
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t r_lo = (c > ku) ? c - ku : 0;
    const std::size_t r_hi = std::min(n - 1, c + kl);
    mul_into(ab + c * ldab + (band0 + r_lo - c), row_scale.data() + r_lo,
             r_hi - r_lo + 1);
  }
  // The trailing rank-1 update runs column-outer / row-inner for the same
  // reason: each inner loop is a unit-stride sub_scaled over one column.
  // Every element still receives exactly one `a -= factor * u` with the
  // same operands as the row-outer form, so the factorization is bitwise
  // identical to the reference (see banded_reference.h and the
  // bench_kernels assertions).
  //
  // Partial pivoting can grow the upper bandwidth to kl + ku, and the
  // storage reserves that room (2*kl + ku + 1 rows), but the fill only
  // reaches as far as the pivot rows did. `ju` is LAPACK dgbtf2's bound:
  // the running max of pivot_row + ku. At step k, rows k.. hold nonzeros
  // only up to max(own row + ku, previous ju), so past ju both rows of a
  // swap hold the +0.0 the storage was filled with, and row k's entries
  // there are the zero `u` the update skips anyway. Stopping the swap and
  // the update at ju therefore runs exactly the same operations.
  std::size_t ju = 0;

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
    ju = std::max(ju, std::min(n - 1, pivot_row + ku));
    if (pivot_row != k) {
      // Swap rows k and pivot_row across the columns the fill reaches.
      for (std::size_t c = k; c <= ju; ++c) {
        double* colc = ab + c * ldab + (band0 + k - c);
        std::swap(colc[0], colc[pivot_off]);
      }
    }
    divide(colk + 1, colk[0], nr);
    for (std::size_t c = k + 1; c <= ju; ++c) {
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
  banded_lu_factor_in_place(lu_, ipiv_, row_scale_);
}

std::vector<double> BandedLu::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  banded_lu_solve(lu_, ipiv_, row_scale_, x);
  return x;
}

}  // namespace subscale::linalg
