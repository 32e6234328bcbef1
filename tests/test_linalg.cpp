#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>

#include "linalg/banded.h"
#include "linalg/dense.h"
#include "linalg/newton.h"

namespace sl = subscale::linalg;

namespace {

std::mt19937 rng(20070604);  // DAC 2007 seed for deterministic tests

sl::DenseMatrix random_diag_dominant(std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  sl::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = dist(rng);
      row_sum += std::abs(a(i, j));
    }
    a(i, i) = row_sum + 1.0 + std::abs(dist(rng));
  }
  return a;
}

}  // namespace

// ---- dense ------------------------------------------------------------------

TEST(Dense, LuSolvesKnownSystem) {
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const sl::LuFactorization lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, LuResidualSmallOnRandomSystems) {
  for (std::size_t n : {3u, 7u, 20u, 50u}) {
    const sl::DenseMatrix a = random_diag_dominant(n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(double(i) + 1.0);
    const auto b = a.multiply(x_true);
    const sl::LuFactorization lu(a);
    const auto x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Dense, LuRequiresPivoting) {
  // Zero on the initial diagonal but nonsingular overall.
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const sl::LuFactorization lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Dense, SingularThrows) {
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(sl::LuFactorization{a}, std::runtime_error);
}

TEST(Dense, VectorHelpers) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(sl::norm_inf(v), 4.0);
}

// ---- banded ---------------------------------------------------------------------

TEST(Banded, InBandQueries) {
  sl::BandedMatrix a(5, 1, 2);
  EXPECT_TRUE(a.in_band(2, 2));
  EXPECT_TRUE(a.in_band(2, 4));   // +2 super
  EXPECT_TRUE(a.in_band(2, 1));   // -1 sub
  EXPECT_FALSE(a.in_band(2, 0));  // -2 sub: outside
  EXPECT_FALSE(a.in_band(0, 3));  // +3 super: outside
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
}

TEST(Banded, MatchesDenseOnRandomBandSystems) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 30;
    const std::size_t kl = 3, ku = 2;
    sl::BandedMatrix ab(n, kl, ku);
    sl::DenseMatrix ad(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!ab.in_band(i, j)) continue;
        const double v = (i == j) ? 8.0 + dist(rng) : dist(rng);
        ab.at(i, j) = v;
        ad(i, j) = v;
      }
    }
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(rng);
    const auto b = ad.multiply(x_true);
    EXPECT_EQ(ab.multiply(x_true).size(), b.size());
    const auto x = sl::BandedLu(ab).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "trial " << trial;
    }
  }
}

TEST(Banded, LaplacianSolve) {
  // 1-D Poisson with unit RHS: solution is the discrete parabola.
  const std::size_t n = 100;
  sl::BandedMatrix a(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, i) = 2.0;
    if (i > 0) a.at(i, i - 1) = -1.0;
    if (i + 1 < n) a.at(i, i + 1) = -1.0;
  }
  const std::vector<double> b(n, 1.0);
  const auto x = sl::BandedLu(a).solve(b);
  // Residual check.
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-9);
  // Symmetry of the solution.
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(x[i], x[n - 1 - i], 1e-9);
  }
}

// ---- Newton -------------------------------------------------------------------

TEST(Newton, SolvesCircleLineIntersection) {
  // x^2 + y^2 = 2, x - y = 0 -> (1, 1) from a nearby start.
  const auto system = [](const std::vector<double>& v, std::vector<double>& f,
                         sl::DenseMatrix& j) {
    f[0] = v[0] * v[0] + v[1] * v[1] - 2.0;
    f[1] = v[0] - v[1];
    j(0, 0) = 2.0 * v[0];
    j(0, 1) = 2.0 * v[1];
    j(1, 0) = 1.0;
    j(1, 1) = -1.0;
  };
  std::vector<double> x{2.0, 0.5};
  sl::NewtonWorkspace ws(2);
  const auto result = sl::newton_solve(system, x, ws);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(Newton, ExponentialResidualNeedsDamping) {
  // f(x) = e^x - 1e6: full Newton from x=0 overshoots wildly without
  // damping; the line search must still land at x = ln(1e6).
  const auto system = [](const std::vector<double>& v, std::vector<double>& f,
                         sl::DenseMatrix& j) {
    f[0] = std::exp(v[0]) - 1e6;
    j(0, 0) = std::exp(v[0]);
  };
  std::vector<double> x{0.0};
  sl::NewtonWorkspace ws(1);
  const auto result = sl::newton_solve(
      system, x, ws, {.max_iterations = 500, .residual_tolerance = 1e-6});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(x[0], std::log(1e6), 1e-6);
}

// ---- parameterized: banded solver across bandwidths ------------------------------

class BandedWidths : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedWidths, RoundTrip) {
  const auto [kl, ku] = GetParam();
  const std::size_t n = 40;
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  // Column-diagonally dominant, as the unpivoted LU requires: a column
  // holds at most kl + ku off-diagonal entries, each within [-1, 1].
  sl::BandedMatrix a(n, std::size_t(kl), std::size_t(ku));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!a.in_band(i, j)) continue;
      a.at(i, j) = (i == j) ? kl + ku + 2.0 + dist(rng) : dist(rng);
    }
  }
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(rng);
  const auto x = sl::BandedLu(a).solve(a.multiply(x_true));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandedWidths,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 5},
                                           std::pair{5, 2}, std::pair{7, 7},
                                           std::pair{1, 10}));

// ---- blocked banded LU vs straight-line reference ----------------------------

#include "linalg/banded_reference.h"

namespace {

/// Random column-diagonally dominant banded system, the class the
/// unpivoted LU is for: off-diagonal entries in [-1, 1], and each
/// diagonal entry, of random sign, exceeds the sum of its column's
/// off-diagonal magnitudes by 0.5 to 1.5.
sl::BandedMatrix random_banded(std::size_t n, std::size_t kl,
                               std::size_t ku) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  sl::BandedMatrix a(n, kl, ku);
  for (std::size_t c = 0; c < n; ++c) {
    double off = 0.0;
    for (std::size_t r = (c > ku ? c - ku : 0); r <= std::min(n - 1, c + kl);
         ++r) {
      if (r == c) continue;
      a.at(r, c) = dist(rng);
      off += std::abs(a.at(r, c));
    }
    const double d = dist(rng);
    a.at(c, c) = (d < 0.0 ? -1.0 : 1.0) * (off + 1.0 + 0.5 * d);
  }
  return a;
}

}  // namespace

TEST(BandedInPlace, ReusedWorkspaceMatchesFreshFactorizationBitwise) {
  // solve_continuity refills one matrix per solve and factors it in
  // place. Each solve out of that reused storage must equal a fresh
  // BandedLu bitwise, also after a factorization threw part-way through
  // and left the storage half factored (a zero row and a zero column
  // each leave a zero pivot at their step).
  const std::size_t n = 120;
  const std::size_t bw = 9;
  sl::BandedMatrix lu(n, bw, bw);
  std::vector<double> x;
  const auto refill = [&](const sl::BandedMatrix& src) {
    lu.set_zero();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = (r > bw ? r - bw : 0); c <= std::min(n - 1, r + bw);
           ++c) {
        lu.at(r, c) = src.at(r, c);
      }
    }
  };
  const auto expect_fresh = [&](const sl::BandedMatrix& a,
                                const std::string& label) {
    std::vector<double> b(n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : b) v = dist(rng);
    refill(a);
    sl::banded_lu_factor_in_place(lu);
    x = b;
    sl::banded_lu_solve(lu, x);
    const auto fresh = sl::BandedLu(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&x[i], &fresh[i], sizeof(double)), 0)
          << label << " i=" << i;
    }
  };
  const auto expect_singular = [&](const sl::BandedMatrix& a) {
    refill(a);
    EXPECT_THROW(sl::banded_lu_factor_in_place(lu), std::runtime_error);
    EXPECT_THROW(sl::BandedLu{a}, std::runtime_error);
  };

  expect_fresh(random_banded(n, bw, bw), "first");
  expect_fresh(random_banded(n, bw, bw), "second");
  sl::BandedMatrix zero_row = random_banded(n, bw, bw);
  for (std::size_t c = 60 - bw; c <= 60 + bw; ++c) zero_row.at(60, c) = 0.0;
  expect_singular(zero_row);
  expect_fresh(random_banded(n, bw, bw), "after zero row");
  sl::BandedMatrix zero_col = random_banded(n, bw, bw);
  for (std::size_t r = 70 - bw; r <= 70 + bw; ++r) zero_col.at(r, 70) = 0.0;
  expect_singular(zero_col);
  expect_fresh(random_banded(n, bw, bw), "after zero column");
}

TEST(BandedReference, BlockedEliminationMatchesReferenceBitwise) {
  // The production BandedLu restructures the elimination into
  // column-outer unit-stride loops with a 4-wide body; the reference
  // keeps textbook row-outer order. Same element-wise operations, same
  // operands -> the SOLUTIONS must agree bitwise, not merely to
  // rounding (memcmp, so a flipped -0.0 or a different NaN counts).
  // Covers square and skew bands, the 943-node system of the 90 nm
  // device at the band of either mesh numbering (23 and 41), and the
  // device-shaped continuity stencil, whose identity rows make the
  // elimination skip whole steps.
  const auto expect_bitwise = [](const sl::BandedMatrix& a,
                                 const std::string& label) {
    std::vector<double> b(a.size());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : b) v = dist(rng);
    const auto x_fast = sl::BandedLu(a).solve(b);
    const auto x_ref = sl::ReferenceBandedLu(a).solve(b);
    ASSERT_EQ(x_fast.size(), x_ref.size()) << label;
    for (std::size_t i = 0; i < x_fast.size(); ++i) {
      ASSERT_EQ(std::memcmp(&x_fast[i], &x_ref[i], sizeof(double)), 0)
          << label << " i=" << i << ": " << x_fast[i] << " vs " << x_ref[i];
    }
  };
  const std::pair<std::size_t, std::size_t> bands[] = {
      {1, 1}, {5, 5}, {3, 9}, {9, 3}, {13, 13}};
  for (const auto& [kl, ku] : bands) {
    expect_bitwise(random_banded(60, kl, ku),
                   "kl=" + std::to_string(kl) + " ku=" + std::to_string(ku));
  }
  for (const std::size_t bw : {std::size_t{23}, std::size_t{41}}) {
    expect_bitwise(random_banded(943, bw, bw),
                   "n=943 bw=" + std::to_string(bw));
  }
  expect_bitwise(sl::stencil_banded(41, 23, 20070604), "stencil 41x23");
}

TEST(BandedLu, StencilSolutionIsPositiveAndMatchesDenseLu) {
  // The continuity stencil at the 90 nm device's shape (41 x 23) is a
  // column-diagonally dominant M-matrix. Unpivoted elimination keeps
  // every multiplier within [-1, 1], the inverse is entrywise
  // non-negative, so a positive right-hand side gives a positive
  // solution, and that solution matches the pivoting dense LU to 1e-12
  // of each entry.
  for (const unsigned seed : {20070604u, 1u, 2u}) {
    const std::string label = "seed=" + std::to_string(seed);
    const sl::BandedMatrix a = sl::stencil_banded(41, 23, seed);
    const std::size_t n = a.size();
    const std::size_t bw = a.lower_bandwidth();
    sl::DenseMatrix dense(n, n);
    for (std::size_t c = 0; c < n; ++c) {
      double off = 0.0;
      for (std::size_t r = (c > bw ? c - bw : 0); r <= std::min(n - 1, c + bw);
           ++r) {
        dense(r, c) = a.at(r, c);
        if (r != c) {
          EXPECT_LE(a.at(r, c), 0.0) << label << " (" << r << ", " << c << ")";
          off += std::abs(a.at(r, c));
        }
      }
      EXPECT_GE(a.at(c, c), off) << label << " column " << c;
    }

    sl::BandedMatrix lu = a;
    sl::banded_lu_factor_in_place(lu);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = c + 1; r <= std::min(n - 1, c + bw); ++r) {
        ASSERT_LE(std::abs(lu.at(r, c)), 1.0) << label << " l(" << r << ", "
                                              << c << ")";
      }
    }

    std::uniform_real_distribution<double> dist(0.5, 1.5);
    std::vector<double> b(n);
    for (auto& v : b) v = dist(rng);
    std::vector<double> x = b;
    sl::banded_lu_solve(lu, x);
    const std::vector<double> x_dense = sl::LuFactorization(dense).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GT(x[i], 0.0) << label << " i=" << i;
      EXPECT_LE(std::abs(x[i] - x_dense[i]), 1e-12 * x_dense[i])
          << label << " i=" << i;
    }
  }
}

TEST(BandedLu, ZeroOrNonFinitePivotThrows) {
  // A zero or non-finite pivot throws runtime_error. Beside the direct
  // cases, a zero pivot that only elimination exposes ([[1, 1], [1, 1]])
  // and a NaN off the diagonal on either side, which reaches the next
  // pivot through the update, throw too.
  const auto expect_throw = [](sl::BandedMatrix a, const std::string& label) {
    EXPECT_THROW(sl::banded_lu_factor_in_place(a), std::runtime_error)
        << label;
  };
  const auto tridiagonal = [](double diag, double off) {
    sl::BandedMatrix a(6, 1, 1);
    for (std::size_t k = 0; k < 6; ++k) {
      a.at(k, k) = diag;
      if (k > 0) a.at(k, k - 1) = off;
      if (k + 1 < 6) a.at(k, k + 1) = off;
    }
    return a;
  };
  sl::BandedMatrix zero_first = tridiagonal(-4.0, 1.0);
  zero_first.at(0, 0) = 0.0;
  expect_throw(zero_first, "zero first pivot");
  expect_throw(tridiagonal(1.0, 1.0), "zero pivot after elimination");
  sl::BandedMatrix nan_diag = tridiagonal(-4.0, 1.0);
  nan_diag.at(3, 3) = std::nan("");
  expect_throw(nan_diag, "NaN pivot");
  sl::BandedMatrix inf_diag = tridiagonal(-4.0, 1.0);
  inf_diag.at(2, 2) = -INFINITY;
  expect_throw(inf_diag, "infinite pivot");
  sl::BandedMatrix nan_lower = tridiagonal(-4.0, 1.0);
  nan_lower.at(4, 3) = std::nan("");
  expect_throw(nan_lower, "NaN multiplier");
  sl::BandedMatrix nan_upper = tridiagonal(-4.0, 1.0);
  nan_upper.at(3, 4) = std::nan("");
  expect_throw(nan_upper, "NaN in U");
}

// ---- symmetric banded LDLᵀ --------------------------------------------------

namespace {

/// Factor and solve through the LDLᵀ kernel (a copy of `a` factored in
/// place).
std::vector<double> ldlt_solve(sl::SymmetricBandedMatrix a,
                               std::vector<double> b) {
  sl::banded_ldlt_factor_in_place(a);
  sl::banded_ldlt_solve(a, b);
  return b;
}

std::vector<double> random_rhs(std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(n);
  for (auto& v : b) v = dist(rng);
  return b;
}

}  // namespace

TEST(BandedLdlt, MatchesBandedLuOnPoissonStencil) {
  // Poisson's Newton Jacobian at the 90 nm device's size (943 nodes) and
  // at the bands of its two mesh-continuation-level shapes (21, 23): the
  // LDLᵀ over the lower band must solve what the LU over the whole band
  // solves, to within 1e-12 of the solution's largest entry. Every free
  // row's pivot is negative, as the definite free block requires, and
  // each Dirichlet row keeps its unit pivot.
  constexpr double kRelTol = 1e-12;
  for (const std::size_t bw : {std::size_t{21}, std::size_t{23}}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      const std::string label =
          "bw=" + std::to_string(bw) + " seed=" + std::to_string(seed);
      const sl::BandedMatrix a = sl::poisson_stencil_banded(943, bw, seed);
      const std::vector<double> b = random_rhs(a.size());
      const std::vector<double> x_lu = sl::BandedLu(a).solve(b);
      const std::vector<double> x = ldlt_solve(sl::lower_triangle(a), b);
      double scale = 0.0;
      double err = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        scale = std::max(scale, std::abs(x_lu[i]));
        err = std::max(err, std::abs(x[i] - x_lu[i]));
      }
      EXPECT_GT(scale, 0.0) << label;
      EXPECT_LE(err, kRelTol * scale) << label;

      sl::SymmetricBandedMatrix f = sl::lower_triangle(a);
      sl::banded_ldlt_factor_in_place(f);
      for (std::size_t k = 0; k < a.size(); ++k) {
        if (a.at(k, k) == 1.0) {
          EXPECT_EQ(f.at(k, k), 1.0) << label << " k=" << k;
        } else {
          EXPECT_LT(f.at(k, k), 0.0) << label << " k=" << k;
        }
      }
    }
  }
}

TEST(BandedLdlt, ZeroOrNonFinitePivotThrows) {
  // BandedLu's contract: a zero or non-finite pivot throws runtime_error.
  // Beside the direct cases, a zero pivot that only elimination exposes
  // ([[1, 1], [1, 1]]) and a NaN off the diagonal, which reaches its
  // row's pivot through the update, throw too.
  const auto expect_throw = [](sl::SymmetricBandedMatrix a,
                               const std::string& label) {
    EXPECT_THROW(sl::banded_ldlt_factor_in_place(a), std::runtime_error)
        << label;
  };
  const auto tridiagonal = [](double diag, double off) {
    sl::SymmetricBandedMatrix a(6, 1);
    for (std::size_t k = 0; k < 6; ++k) {
      a.at(k, k) = diag;
      if (k > 0) a.at(k, k - 1) = off;
    }
    return a;
  };
  sl::SymmetricBandedMatrix zero_first = tridiagonal(-4.0, 1.0);
  zero_first.at(0, 0) = 0.0;
  expect_throw(zero_first, "zero first pivot");
  expect_throw(tridiagonal(1.0, 1.0), "zero pivot after elimination");
  sl::SymmetricBandedMatrix nan_diag = tridiagonal(-4.0, 1.0);
  nan_diag.at(3, 3) = std::nan("");
  expect_throw(nan_diag, "NaN pivot");
  sl::SymmetricBandedMatrix inf_diag = tridiagonal(-4.0, 1.0);
  inf_diag.at(2, 2) = -INFINITY;
  expect_throw(inf_diag, "infinite pivot");
  sl::SymmetricBandedMatrix nan_off = tridiagonal(-4.0, 1.0);
  nan_off.at(4, 3) = std::nan("");
  expect_throw(nan_off, "NaN multiplier");

  // Only the lower band is addressable.
  sl::SymmetricBandedMatrix a(6, 2);
  EXPECT_NO_THROW(a.at(3, 1));
  EXPECT_THROW(a.at(1, 3), std::out_of_range);
  EXPECT_THROW(a.at(4, 1), std::out_of_range);
  EXPECT_THROW(a.at(6, 6), std::out_of_range);
}

TEST(BandedLdlt, ReusedStorageMatchesFreshFactorizationBitwise) {
  // solve_poisson zeroes, refills and refactors one matrix per Newton
  // iteration. Each solve out of that reused storage must equal a fresh
  // factorization bit for bit, also after a factorization threw part-way
  // through and left the storage half factored.
  const std::size_t n = 943;
  const std::size_t bw = 23;
  sl::SymmetricBandedMatrix reused(n, bw);
  const auto refill = [&](const sl::BandedMatrix& src) {
    reused.set_zero();
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = c; r <= std::min(n - 1, c + bw); ++r) {
        reused.at(r, c) = src.at(r, c);
      }
    }
  };
  const auto expect_fresh = [&](const sl::BandedMatrix& a,
                                const std::string& label) {
    const std::vector<double> b = random_rhs(n);
    refill(a);
    sl::banded_ldlt_factor_in_place(reused);
    std::vector<double> x = b;
    sl::banded_ldlt_solve(reused, x);
    const std::vector<double> fresh = ldlt_solve(sl::lower_triangle(a), b);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&x[i], &fresh[i], sizeof(double)), 0)
          << label << " i=" << i;
    }
  };

  expect_fresh(sl::poisson_stencil_banded(n, bw, 11), "first");
  expect_fresh(sl::poisson_stencil_banded(n, bw, 12), "second");
  sl::BandedMatrix broken = sl::poisson_stencil_banded(n, bw, 13);
  broken.at(500, 500) = std::nan("");
  refill(broken);
  EXPECT_THROW(sl::banded_ldlt_factor_in_place(reused), std::runtime_error);
  expect_fresh(sl::poisson_stencil_banded(n, bw, 14), "after a throw");
}
