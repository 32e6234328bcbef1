#pragma once

/// \file dense.h
/// Small dense-matrix support for the circuit engine's Newton iterations.
/// Row-major storage, LU factorization with partial pivoting.

#include <cstddef>
#include <vector>

namespace subscale::linalg {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Set every entry to zero (keeps the shape).
  void set_zero();

  /// y = A * x. Requires x.size() == cols().
  std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of the square matrix `a`, in
/// place: on return `a` holds U on and above the diagonal and the unit
/// lower factor L below it, and `perm[i]` is the original row now at row
/// i. Returns false, with `a` partly eliminated, on a (numerically)
/// singular matrix. Allocates nothing when perm.size() == a.rows().
bool lu_factor_in_place(DenseMatrix& a, std::vector<std::size_t>& perm);

/// Solve A x = b from lu_factor_in_place's output. `x` must already hold
/// b.size() entries and must not alias `b`; nothing is allocated.
void lu_solve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
              const std::vector<double>& b, std::vector<double>& x);

/// An owning LU factorization (lu_factor_in_place on a copy).
/// Throws std::runtime_error on a (numerically) singular matrix.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  /// Solve A x = b for x.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
};

/// Euclidean norm of a vector.
double norm2(const std::vector<double>& v);

/// Max-abs norm of a vector.
double norm_inf(const std::vector<double>& v);

/// Dot product; sizes must match.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x (sizes must match).
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

}  // namespace subscale::linalg
