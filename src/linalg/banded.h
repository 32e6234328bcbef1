#pragma once

/// \file banded.h
/// Banded direct solvers. The 2-D TCAD discretization on a tensor-product
/// mesh produces matrices with one row per unknown node, numbered along
/// the faster-varying mesh axis, which TensorMesh2d makes the shorter
/// one; their band is at most the nodes along that axis
/// (TensorMesh2d::bandwidth(), min(nx, ny)) and narrower where a fixed
/// node drops out (mesh::number_rows, DESIGN §29). A banded direct solve
/// is both fast (O(n*bw^2)) and far more robust than iterative methods.
/// Neither factorization pivots or scales rows: the LU takes the
/// continuity systems, which are column-diagonally dominant with their
/// contact neighbours on the right-hand side (DESIGN §23), and the LDLᵀ
/// takes Poisson's symmetric definite Newton Jacobian (§22).

#include <cstddef>
#include <vector>

namespace subscale::linalg {

class BandedMatrix;
class SymmetricBandedMatrix;

/// LU factorization of a banded matrix in place, without pivoting or
/// row scaling, so it is only for matrices whose elimination needs
/// neither, such as a column-diagonally dominant one (every multiplier
/// then satisfies |l| <= 1; DESIGN §23.1). On return `a`'s diagonal and
/// super-diagonals hold U and its sub-diagonals the multipliers of the
/// unit-lower L. Throws std::runtime_error on a zero or non-finite
/// pivot, with `a` partly factored; refill every entry (set_zero)
/// before reusing it. Allocates nothing.
void banded_lu_factor_in_place(BandedMatrix& a);

/// Solve A x = b in place from banded_lu_factor_in_place's output: `x`
/// holds b on entry and the solution on return. Allocates nothing.
void banded_lu_solve(const BandedMatrix& lu, std::vector<double>& x);

/// LDLᵀ factorization of a symmetric banded matrix in place: no pivoting
/// and no row scaling, so it is only for matrices whose elimination needs
/// neither, such as a symmetric definite one of either sign (Poisson's
/// Newton Jacobian, DESIGN §22); a nonsymmetric one goes through
/// banded_lu_factor_in_place. On return `a`'s diagonal holds D and its
/// sub-diagonals hold the multipliers of the unit-lower L. Throws
/// std::runtime_error on a zero or non-finite pivot, with `a` partly
/// factored; refill every entry (set_zero) before reusing it. A NaN or
/// Inf anywhere in the band reaches the pivot of its row, so it throws
/// too. Allocates nothing.
void banded_ldlt_factor_in_place(SymmetricBandedMatrix& a);

/// Solve A x = b in place from banded_ldlt_factor_in_place's output: `x`
/// holds b on entry and the solution on return. Allocates nothing.
void banded_ldlt_solve(const SymmetricBandedMatrix& ldlt,
                       std::vector<double>& x);

/// Banded matrix in LAPACK-style band storage, (kl + ku + 1) x n,
/// column-major, column c holding rows c - ku .. c + kl. The LU does not
/// pivot, so nothing fills outside the band and no extra rows are kept.
class BandedMatrix {
 public:
  /// \param n  matrix dimension
  /// \param kl number of sub-diagonals
  /// \param ku number of super-diagonals
  BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku);

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return kl_; }
  std::size_t upper_bandwidth() const { return ku_; }

  /// Access entry (r, c); (r, c) must lie within the band.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// True if (r, c) lies within the declared band.
  bool in_band(std::size_t r, std::size_t c) const;

  /// Add `value` to entry (r, c) (must be in band).
  void add(std::size_t r, std::size_t c, double value) { at(r, c) += value; }

  void set_zero();

  /// y = A x.
  std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  friend void banded_lu_factor_in_place(BandedMatrix&);
  friend void banded_lu_solve(const BandedMatrix&, std::vector<double>&);
  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;
  std::size_t ldab_;          // rows of band storage = kl + ku + 1
  std::vector<double> ab_;    // column-major band storage

  double& storage(std::size_t r, std::size_t c) {
    // Row index within band storage: ku + r - c.
    return ab_[c * ldab_ + (ku_ + r - c)];
  }
  double storage(std::size_t r, std::size_t c) const {
    return ab_[c * ldab_ + (ku_ + r - c)];
  }
};

/// Symmetric banded matrix stored by its lower triangle, LAPACK's 'L'
/// band layout: (kl + 1) x n, column-major, column c holding rows
/// c .. c + kl: about half of BandedMatrix's kl + ku + 1 rows at
/// ku = kl.
class SymmetricBandedMatrix {
 public:
  /// \param n  matrix dimension
  /// \param kl number of sub-diagonals (= super-diagonals)
  SymmetricBandedMatrix(std::size_t n, std::size_t kl);

  /// Entry (r, c) of the lower triangle, c <= r <= c + kl; it is also
  /// entry (c, r). Throws std::out_of_range elsewhere.
  double& at(std::size_t r, std::size_t c) { return ab_[offset(r, c)]; }
  double at(std::size_t r, std::size_t c) const { return ab_[offset(r, c)]; }

  void set_zero();

 private:
  friend void banded_ldlt_factor_in_place(SymmetricBandedMatrix&);
  friend void banded_ldlt_solve(const SymmetricBandedMatrix&,
                                std::vector<double>&);
  std::size_t n_;
  std::size_t kl_;
  std::vector<double> ab_;  // column-major, (kl + 1) rows

  std::size_t offset(std::size_t r, std::size_t c) const;
};

/// An owning banded LU factorization (banded_lu_factor_in_place on a
/// copy), for callers that factor once; solvers that refactor every
/// iteration keep the matrix in their own workspace.
class BandedLu {
 public:
  /// Factorizes a copy of `a`. Throws std::runtime_error on a zero or
  /// non-finite pivot.
  explicit BandedLu(BandedMatrix a);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  BandedMatrix lu_;
};

}  // namespace subscale::linalg
