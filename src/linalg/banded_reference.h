#pragma once

/// \file banded_reference.h
/// Straight-line, element-at-a-time reference implementation of the banded
/// LU factorization in banded.h. The production BandedLu restructures the
/// elimination loops for unit-stride vector access; this reference keeps the
/// textbook row-outer order. Both perform the identical set of element-wise
/// operations (one `a -= factor * u` per in-band element per pivot, same
/// operands), so their factors and solutions must agree BITWISE — the
/// differential kernel tests in tests/test_linalg.cpp and bench_kernels
/// enforce exactly that. This class exists for those tests and as the
/// baseline side of the blocked-vs-reference benchmark; production code
/// should use BandedLu. The device-shaped test matrices below are shared
/// by the same tests and benchmarks.

#include <cstddef>
#include <vector>

#include "linalg/banded.h"

namespace subscale::linalg {

/// Reference banded LU without pivoting or row scaling, operating on a
/// dense copy restricted to the band. Mirrors BandedLu's numerical
/// behaviour operation-for-operation.
class ReferenceBandedLu {
 public:
  explicit ReferenceBandedLu(const BandedMatrix& a);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;
  std::vector<double> dense_;  // row-major n x n; out-of-band entries stay 0

  double& at(std::size_t r, std::size_t c) { return dense_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return dense_[r * n_ + c]; }
};

/// A system shaped like the full-mesh continuity matrices that
/// solve_continuity factored before it numbered only its unknowns (one
/// row per mesh node, DESIGN §29), for the kernel tests and benchmarks:
/// the hole rows of a Scharfetter–Gummel 5-point stencil on an nx x ny
/// grid numbered along y (node i*ny + j, so kl = ku = ny). The top three
/// grid rows are oxide, identity rows that no other row couples to; the
/// outer quarters of the next (surface) row and the whole bottom row are
/// ohmic contacts, identity rows whose columns are dropped, as
/// solve_continuity moves them to the right-hand side. Every other row
/// holds, per edge to a silicon neighbour, k B(d) on the diagonal and
/// -k B(-d) at the neighbour (unless it is a contact), with one random
/// conductance k and one potential drop d in thermal voltages per edge
/// (about one edge in thirty steep), read negated from the far end; and
/// a recombination term on the diagonal. Each edge's k B(d) thus
/// appears once off the diagonal and once on its column's diagonal, so
/// the matrix is a column-diagonally dominant M-matrix, strictly so
/// wherever the recombination term or a contact edge is. Dropping the
/// identity rows leaves the shape the solver factors now, which
/// bench_kernels times next to this one. Deterministic in `seed`.
BandedMatrix stencil_banded(std::size_t nx, std::size_t ny,
                            unsigned seed);

/// A system shaped like Poisson's Newton Jacobian in solve_poisson as it
/// was assembled over the full mesh, for the LDLᵀ kernel tests and
/// benchmarks: a 5-point stencil on n nodes
/// numbered in columns of `bw` (node r couples to r +- 1 inside its
/// column and to r +- bw; the last column is partial when bw does not
/// divide n), so kl = ku = bw. The top three rows of every column are
/// oxide, the bottom row and the middle half of the top row are
/// Dirichlet nodes: identity rows whose columns are dropped (solve_poisson
/// now has no row for them). Every other row is -(sum of its edge
/// conductances) - (a charge term spanning 1e-10 to 10 conductances) on
/// the diagonal and +conductance off it, each edge's one value used in
/// both of its rows. The matrix is exactly symmetric, and its free block
/// negative definite and diagonally dominant. Returned in general band
/// storage so BandedLu can factor it too; lower_triangle() gives the
/// LDLᵀ's input. Deterministic in `seed`.
BandedMatrix poisson_stencil_banded(std::size_t n, std::size_t bw,
                                    unsigned seed);

/// The lower triangle of `a`, at a's lower bandwidth.
SymmetricBandedMatrix lower_triangle(const BandedMatrix& a);

}  // namespace subscale::linalg
