#include "linalg/dense.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace subscale::linalg {

void DenseMatrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("DenseMatrix::multiply: size mismatch");
  }
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += data_[r * cols_ + c] * x[c];
    }
    y[r] = acc;
  }
  return y;
}

bool lu_factor_in_place(DenseMatrix& a, std::vector<std::size_t>& perm) {
  const std::size_t n = a.rows();
  if (n != a.cols()) {
    throw std::invalid_argument("lu_factor_in_place: matrix must be square");
  }
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find the largest entry in column k at/below row k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag == 0.0 || !std::isfinite(pivot_mag)) return false;
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a(k, c), a(pivot_row, c));
      }
      std::swap(perm[k], perm[pivot_row]);
    }
    const double pivot = a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a(r, k) / pivot;
      a(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        a(r, c) -= factor * a(k, c);
      }
    }
  }
  return true;
}

void lu_solve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
              const std::vector<double>& b, std::vector<double>& x) {
  const std::size_t n = lu.rows();
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("lu_solve: size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Forward substitution (unit lower triangle).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
}

LuFactorization::LuFactorization(DenseMatrix a) : lu_(std::move(a)) {
  if (!lu_factor_in_place(lu_, perm_)) {
    throw std::runtime_error("LuFactorization: singular matrix");
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  std::vector<double> x(b.size());
  lu_solve(lu_, perm_, b, x);
  return x;
}

double norm_inf(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc = std::max(acc, std::abs(x));
  return acc;
}

}  // namespace subscale::linalg
