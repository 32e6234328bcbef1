// Library-performance microbenchmarks (google-benchmark): the numerical
// kernels behind the reproduction — banded LU and LDLᵀ, compact-model
// evaluation, VTC solves, FO1 transients, a V_min search, and a full TCAD
// Gummel bias point.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "circuits/delay.h"
#include "circuits/inverter.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "compact/mosfet.h"
#include "linalg/banded.h"
#include "linalg/banded_reference.h"
#include "opt/golden_section.h"
#include "scaling/supervth_strategy.h"
#include "tcad/continuity.h"
#include "tcad/gummel.h"

using namespace subscale;

namespace {

compact::DeviceSpec spec_90() {
  return compact::make_spec_from_table(doping::Polarity::kNfet, 65, 2.10,
                                       1.52e18, 3.63e18, 1.2, 1.0);
}

// Banded LU at the paper shapes: the 90 nm device's 943-node mesh at the
// band of either numbering (41 numbering along x, 23 along the shorter y
// axis) as a dense random band; as the device-shaped 41 x 23 continuity
// stencil with its identity oxide and contact rows
// (linalg::stencil_banded), the system solve_continuity factored before
// it numbered only its unknowns; as that stencil with those rows
// dropped, 41 columns of 19 unknowns less the surface contacts at band
// 19, the shape it factors now (767 rows at band 19 on the device); and
// as the symmetric Poisson stencil (linalg::poisson_stencil_banded),
// selected by the third argument (0, 1, 3, 2). The blocked elimination in
// BandedLu is pinned bitwise to the textbook loop nest in
// ReferenceBandedLu (tier-1: test_linalg
// BandedReference.BlockedEliminationMatchesReferenceBitwise); both
// benchmarks repeat that check before timing, so a silent numerical
// drift cannot be misread as a win, and the stencil without identity
// rows must also solve to the full stencil's solution at its rows, bit
// for bit (DESIGN §29). The random band is column-diagonally dominant,
// as the unpivoted LU requires: entries in [-1, 1] off the diagonal, and
// each diagonal entry the column's off-diagonal sum plus 1.
linalg::BandedMatrix make_bench_banded(std::size_t n, std::size_t bw) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::BandedMatrix a(n, bw, bw);
  for (std::size_t c = 0; c < n; ++c) {
    double off = 0.0;
    for (std::size_t r = (c > bw ? c - bw : 0); r <= std::min(n - 1, c + bw);
         ++r) {
      if (r == c) continue;
      a.at(r, c) = dist(rng);
      off += std::abs(a.at(r, c));
    }
    a.at(c, c) = off + 1.0;
  }
  return a;
}

void check_bitwise(const std::vector<double>& fast,
                   const std::vector<double>& ref, const char* what) {
  if (fast.size() != ref.size()) {
    std::fprintf(stderr, "BITWISE MISMATCH (%s): size\n", what);
    std::abort();
  }
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (std::memcmp(&fast[i], &ref[i], sizeof(double)) != 0) {
      std::fprintf(stderr, "BITWISE MISMATCH (%s): index %zu %.17g vs %.17g\n",
                   what, i, fast[i], ref[i]);
      std::abort();
    }
  }
}

/// `a` without its identity rows, those whose row and column hold
/// nothing but a 1 on the diagonal (the oxide and contact rows of
/// stencil_banded). The other rows keep their order; the band is the
/// widest coupling among them. `kept` receives their indices in `a`.
linalg::BandedMatrix unknowns_only(const linalg::BandedMatrix& a,
                                   std::vector<std::size_t>& kept) {
  const std::size_t n = a.size();
  const auto entries = [&](std::size_t r, const auto& visit) {
    const std::size_t lo = r > a.lower_bandwidth() ? r - a.lower_bandwidth()
                                                   : 0;
    const std::size_t hi = std::min(n - 1, r + a.upper_bandwidth());
    for (std::size_t c = lo; c <= hi; ++c) {
      if (c != r && (a.at(r, c) != 0.0 || a.at(c, r) != 0.0)) visit(c);
    }
  };
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> row(n, kDropped);
  kept.clear();
  for (std::size_t r = 0; r < n; ++r) {
    bool coupled = false;
    entries(r, [&](std::size_t) { coupled = true; });
    if (coupled || a.at(r, r) != 1.0) {
      row[r] = kept.size();
      kept.push_back(r);
    }
  }
  std::size_t band = 0;
  for (const std::size_t r : kept) {
    entries(r, [&](std::size_t c) {
      band = std::max(band, row[r] > row[c] ? row[r] - row[c]
                                            : row[c] - row[r]);
    });
  }
  linalg::BandedMatrix out(kept.size(), band, band);
  for (const std::size_t r : kept) {
    out.at(row[r], row[r]) = a.at(r, r);
    entries(r, [&](std::size_t c) { out.at(row[r], row[c]) = a.at(r, c); });
  }
  return out;
}

/// The shared set-up of both LU benchmarks: the matrix at (n, bw, shape),
/// a right-hand side, and the bitwise checks. The label gives the
/// factored rows and band.
linalg::BandedMatrix checked_bench_banded(benchmark::State& state,
                                          std::vector<double>& b) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bw = static_cast<std::size_t>(state.range(1));
  linalg::BandedMatrix a =
      state.range(2) == 0   ? make_bench_banded(n, bw)
      : state.range(2) == 2 ? linalg::poisson_stencil_banded(n, bw, 7)
                            : linalg::stencil_banded(n / bw, bw, 7);
  if (state.range(2) == 3) {
    std::vector<std::size_t> kept;
    linalg::BandedMatrix reduced = unknowns_only(a, kept);
    const std::vector<double> full =
        linalg::BandedLu(a).solve(std::vector<double>(n, 1.0));
    std::vector<double> at_kept;
    for (const std::size_t r : kept) at_kept.push_back(full[r]);
    check_bitwise(
        linalg::BandedLu(reduced).solve(std::vector<double>(kept.size(), 1.0)),
        at_kept, "identity rows dropped");
    a = std::move(reduced);
  }
  b.assign(a.size(), 1.0);
  check_bitwise(linalg::BandedLu(a).solve(b),
                linalg::ReferenceBandedLu(a).solve(b), "banded lu");
  state.SetLabel(std::to_string(a.size()) + "/" +
                 std::to_string(a.lower_bandwidth()));
  return a;
}

void BM_BandedLuFactorSolve(benchmark::State& state) {
  std::vector<double> b;
  const linalg::BandedMatrix a = checked_bench_banded(state, b);
  for (auto _ : state) {
    linalg::BandedLu lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_BandedLuFactorSolve)
    ->Args({943, 41, 0})
    ->Args({943, 23, 0})
    ->Args({943, 23, 1})
    ->Args({943, 23, 3})
    ->Args({943, 23, 2});

// The LDLᵀ that solve_poisson factors with, on the symmetric Poisson
// stencil: at 943/23, the full-mesh shape it factored with its Dirichlet
// rows and the other half of the pair BM_BandedLuFactorSolve/943/23/2
// times, and at 863/22, the rows and band of the 90 nm device's system of
// unknowns (the stencil's own Dirichlet rows, a few percent of it, stay
// in). The two solutions are cross-checked to test_linalg's 1e-12
// relative bound (BandedLdlt.MatchesBandedLuOnPoissonStencil) before
// timing. Each iteration copies the matrix, as BandedLu's does.
void BM_BandedLdltFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t bw = static_cast<std::size_t>(state.range(1));
  const linalg::BandedMatrix general =
      linalg::poisson_stencil_banded(n, bw, 7);
  const linalg::SymmetricBandedMatrix a = linalg::lower_triangle(general);
  const std::vector<double> b(n, 1.0);
  const auto solve = [&] {
    linalg::SymmetricBandedMatrix ldlt = a;
    linalg::banded_ldlt_factor_in_place(ldlt);
    std::vector<double> x = b;
    linalg::banded_ldlt_solve(ldlt, x);
    return x;
  };
  const std::vector<double> x = solve();
  const std::vector<double> x_lu = linalg::BandedLu(general).solve(b);
  double scale = 0.0;
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::abs(x_lu[i]));
    err = std::max(err, std::abs(x[i] - x_lu[i]));
  }
  if (!(err <= 1e-12 * scale)) {
    std::fprintf(stderr, "LDLT MISMATCH: max |x - x_lu| = %.3g of %.3g\n",
                 err, scale);
    std::abort();
  }
  for (auto _ : state) benchmark::DoNotOptimize(solve());
}
BENCHMARK(BM_BandedLdltFactorSolve)->Args({943, 23})->Args({863, 22});

void BM_BandedLuReferenceSolve(benchmark::State& state) {
  std::vector<double> b;
  const linalg::BandedMatrix a = checked_bench_banded(state, b);
  for (auto _ : state) {
    linalg::ReferenceBandedLu lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_BandedLuReferenceSolve)
    ->Args({943, 41, 0})
    ->Args({943, 23, 0})
    ->Args({943, 23, 1})
    ->Args({943, 23, 3});

// Scharfetter–Gummel assembly, fresh-buffers vs SgWorkspace reuse. The
// workspace caches edge geometry + zero-field mobilities across solves;
// its output is asserted bitwise-equal to the workspace-free path on
// the same Gummel iterate before timing either variant.
struct SgBenchFixture {
  tcad::DeviceStructure dev{spec_90()};
  std::vector<double> psi, n0, p0;
  SgBenchFixture() {
    tcad::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    psi = solver.psi();
    n0 = solver.electron_density();
    p0 = solver.hole_density();
  }
};

SgBenchFixture& sg_fixture() {
  static SgBenchFixture fx;
  return fx;
}

void BM_SgAssemblyFresh(benchmark::State& state) {
  auto& fx = sg_fixture();
  std::vector<double> n = fx.n0;
  for (auto _ : state) {
    n = fx.n0;
    tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi,
                           fx.p0, n);
    benchmark::DoNotOptimize(n.data());
  }
}
BENCHMARK(BM_SgAssemblyFresh)->Unit(benchmark::kMicrosecond);

void BM_SgAssemblyWorkspace(benchmark::State& state) {
  auto& fx = sg_fixture();
  std::vector<double> n_ref = fx.n0;
  tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi, fx.p0,
                         n_ref);
  tcad::SgWorkspace ws;
  std::vector<double> n = fx.n0;
  tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi, fx.p0,
                         n, nullptr, &ws);
  check_bitwise(n, n_ref, "sg workspace");
  for (auto _ : state) {
    n = fx.n0;
    tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi,
                           fx.p0, n, nullptr, &ws);
    benchmark::DoNotOptimize(n.data());
  }
}
BENCHMARK(BM_SgAssemblyWorkspace)->Unit(benchmark::kMicrosecond);

void BM_CompactModelConstruction(benchmark::State& state) {
  const auto spec = spec_90();
  for (auto _ : state) {
    compact::CompactMosfet fet(spec);
    benchmark::DoNotOptimize(fet.subthreshold_swing());
  }
}
BENCHMARK(BM_CompactModelConstruction);

void BM_CompactDrainCurrent(benchmark::State& state) {
  const compact::CompactMosfet fet(spec_90());
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-7;
    benchmark::DoNotOptimize(fet.drain_current(0.3 + v, 0.25));
  }
}
BENCHMARK(BM_CompactDrainCurrent);

void BM_CompactEvaluate(benchmark::State& state) {
  const compact::CompactMosfet fet(spec_90());
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-7;
    benchmark::DoNotOptimize(fet.evaluate(0.3 + v, 0.25));
  }
}
BENCHMARK(BM_CompactEvaluate);

void BM_VtcOutput(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90()).at_vdd(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::vtc_output(inv, 0.125));
  }
}
BENCHMARK(BM_VtcOutput);

void BM_NoiseMargins(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90()).at_vdd(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::noise_margins(inv));
  }
}
BENCHMARK(BM_NoiseMargins);

void BM_Fo1DelayTransient(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90());
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::fo1_delay(inv).tp);
  }
}
BENCHMARK(BM_Fo1DelayTransient);

void BM_FindVmin(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90()).at_vdd(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::find_vmin(inv).vmin);
  }
}
BENCHMARK(BM_FindVmin)->Unit(benchmark::kMicrosecond);

void BM_SuperVthDesignFlow(benchmark::State& state) {
  const auto& node = scaling::paper_nodes()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaling::design_supervth_device(node));
  }
}
BENCHMARK(BM_SuperVthDesignFlow);

void BM_TcadEquilibrium(benchmark::State& state) {
  const tcad::DeviceStructure dev(spec_90());
  for (auto _ : state) {
    tcad::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    benchmark::DoNotOptimize(solver.psi());
  }
}
BENCHMARK(BM_TcadEquilibrium)->Unit(benchmark::kMillisecond);

void BM_GoldenSection(benchmark::State& state) {
  const auto f = [](double x) { return (x - 0.3) * (x - 0.3); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::golden_section_minimize(f, -3.0, 3.0, 1e-9));
  }
}
BENCHMARK(BM_GoldenSection);

}  // namespace

BENCHMARK_MAIN();
