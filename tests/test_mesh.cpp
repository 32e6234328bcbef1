#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "mesh/grid1d.h"
#include "mesh/mesh2d.h"

namespace sm = subscale::mesh;

// ---- graded ticks ---------------------------------------------------------

TEST(GradedTicks, EndpointsExactAndMonotone) {
  const auto ticks =
      sm::graded_ticks({.x0 = 0.0, .x1 = 1.0, .h0 = 0.01, .ratio = 1.2});
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks.front(), 0.0);
  EXPECT_DOUBLE_EQ(ticks.back(), 1.0);
  for (std::size_t i = 0; i + 1 < ticks.size(); ++i) {
    EXPECT_LT(ticks[i], ticks[i + 1]);
  }
}

TEST(GradedTicks, SpacingGrowsWithRatio) {
  const auto ticks =
      sm::graded_ticks({.x0 = 0.0, .x1 = 10.0, .h0 = 0.1, .ratio = 1.3});
  // First spacing ~ h0; interior spacings grow.
  EXPECT_NEAR(ticks[1] - ticks[0], 0.1, 1e-12);
  for (std::size_t i = 1; i + 2 < ticks.size(); ++i) {
    EXPECT_GE(ticks[i + 1] - ticks[i], (ticks[i] - ticks[i - 1]) * 0.99);
  }
}

TEST(GradedTicks, RejectsBadInput) {
  EXPECT_THROW(sm::graded_ticks({.x0 = 1.0, .x1 = 0.0, .h0 = 0.1, .ratio = 1.2}),
               std::invalid_argument);
  EXPECT_THROW(sm::graded_ticks({.x0 = 0.0, .x1 = 1.0, .h0 = 0.0, .ratio = 1.2}),
               std::invalid_argument);
}

TEST(DoubleGradedTicks, SymmetricAboutMidpoint) {
  const auto ticks = sm::double_graded_ticks(0.0, 2.0, 0.02, 1.25);
  EXPECT_DOUBLE_EQ(ticks.front(), 0.0);
  EXPECT_DOUBLE_EQ(ticks.back(), 2.0);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const double mirrored = 2.0 - ticks[ticks.size() - 1 - i];
    EXPECT_NEAR(ticks[i], mirrored, 1e-12);
  }
  // Fine at the edges, coarse in the middle.
  const double edge_h = ticks[1] - ticks[0];
  double max_h = 0.0;
  for (std::size_t i = 0; i + 1 < ticks.size(); ++i) {
    max_h = std::max(max_h, ticks[i + 1] - ticks[i]);
  }
  EXPECT_GT(max_h, 2.0 * edge_h);
}

// ---- Grid1d -----------------------------------------------------------------

TEST(Grid1d, MergeTolerance) {
  sm::Grid1d grid;
  grid.add_ticks({0.0, 1.0, 1.0 + 1e-12, 2.0});
  grid.add_point(0.5);
  grid.finalize(1e-9);
  EXPECT_EQ(grid.size(), 4u);  // the 1.0 duplicate collapses
  EXPECT_DOUBLE_EQ(grid[1], 0.5);
}

TEST(Grid1d, NearestIndex) {
  sm::Grid1d grid({0.0, 1.0, 3.0, 6.0});
  EXPECT_EQ(grid.nearest_index(-5.0), 0u);
  EXPECT_EQ(grid.nearest_index(0.4), 0u);
  EXPECT_EQ(grid.nearest_index(0.6), 1u);
  EXPECT_EQ(grid.nearest_index(4.6), 3u);
  EXPECT_EQ(grid.nearest_index(100.0), 3u);
}

TEST(Grid1d, AddAfterFinalizeThrows) {
  sm::Grid1d grid({0.0, 1.0});
  EXPECT_THROW(grid.add_point(0.5), std::logic_error);
}

// ---- TensorMesh2d --------------------------------------------------------------

namespace {

sm::TensorMesh2d make_unit_mesh(std::size_t nx, std::size_t ny) {
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t i = 0; i < nx; ++i) xs[i] = double(i) / double(nx - 1);
  for (std::size_t j = 0; j < ny; ++j) ys[j] = double(j) / double(ny - 1);
  return sm::TensorMesh2d(sm::Grid1d(xs), sm::Grid1d(ys));
}

}  // namespace

TEST(TensorMesh2d, IndexRoundTrip) {
  // Wider than tall, taller than wide, and square: both numberings.
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{7, 5},
                               {5, 7},
                               {6, 6}}) {
    const auto mesh = make_unit_mesh(nx, ny);
    std::vector<char> seen(mesh.node_count(), 0);
    for (std::size_t j = 0; j < mesh.ny(); ++j) {
      for (std::size_t i = 0; i < mesh.nx(); ++i) {
        const std::size_t idx = mesh.index(i, j);
        ASSERT_LT(idx, mesh.node_count()) << nx << "x" << ny;
        EXPECT_EQ(seen[idx]++, 0) << nx << "x" << ny << " idx " << idx;
        EXPECT_EQ(mesh.i_of(idx), i) << nx << "x" << ny;
        EXPECT_EQ(mesh.j_of(idx), j) << nx << "x" << ny;
      }
    }
  }
}

TEST(TensorMesh2d, NumbersAlongTheShorterAxis) {
  // The band of a 5-point stencil is the index distance between
  // neighbours, so the mesh numbers its shorter axis first (x on a tie)
  // and every 4-neighbour pair lies within bandwidth() = min(nx, ny).
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{7, 5},
                               {5, 7},
                               {6, 6},
                               {41, 23},
                               {23, 41}}) {
    const auto mesh = make_unit_mesh(nx, ny);
    const std::string shape = std::to_string(nx) + "x" + std::to_string(ny);
    EXPECT_EQ(mesh.bandwidth(), std::min(nx, ny)) << shape;
    std::size_t widest = 0;
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t idx = mesh.index(i, j);
        if (i + 1 < nx) {
          const std::size_t east = mesh.index(i + 1, j);
          widest = std::max(widest, east > idx ? east - idx : idx - east);
          EXPECT_EQ(east - idx, ny < nx ? ny : 1) << shape;
        }
        if (j + 1 < ny) {
          const std::size_t north = mesh.index(i, j + 1);
          widest = std::max(widest, north > idx ? north - idx : idx - north);
          EXPECT_EQ(north - idx, ny < nx ? 1 : nx) << shape;
        }
      }
    }
    EXPECT_LE(widest, mesh.bandwidth()) << shape;
  }
}

TEST(TensorMesh2d, BoxAreasTileTheDomain) {
  const auto mesh = make_unit_mesh(9, 6);
  double total = 0.0;
  for (std::size_t j = 0; j < mesh.ny(); ++j) {
    for (std::size_t i = 0; i < mesh.nx(); ++i) {
      total += mesh.box_area(i, j);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);  // unit square
}

TEST(TensorMesh2d, MaterialBoxAssignment) {
  auto mesh = make_unit_mesh(11, 11);
  mesh.set_material_box(sm::Material::kOxide, 0.0, 1.0, 0.0, 0.3);
  EXPECT_EQ(mesh.material(5, 0), sm::Material::kOxide);
  EXPECT_EQ(mesh.material(5, 3), sm::Material::kOxide);  // y = 0.3 inclusive
  EXPECT_EQ(mesh.material(5, 4), sm::Material::kSilicon);
}

TEST(TensorMesh2d, ContactsOwnNodesExclusively) {
  auto mesh = make_unit_mesh(11, 11);
  mesh.add_contact_box("source", 0.0, 0.2, 0.0, 0.0);
  mesh.add_contact_box("drain", 0.8, 1.0, 0.0, 0.0);
  EXPECT_EQ(mesh.contact_nodes("source").size(), 3u);
  EXPECT_EQ(mesh.contact_nodes("drain").size(), 3u);
  EXPECT_EQ(mesh.contact_of(mesh.index(0, 0)), "source");
  EXPECT_TRUE(mesh.contact_of(mesh.index(5, 5)).empty());
  // Overlapping contact claims must throw.
  EXPECT_THROW(mesh.add_contact_box("gate", 0.1, 0.3, 0.0, 0.0),
               std::logic_error);
}

TEST(TensorMesh2d, UnknownContactThrows) {
  const auto mesh = make_unit_mesh(3, 3);
  EXPECT_THROW(mesh.contact_nodes("nope"), std::out_of_range);
}

TEST(TensorMesh2d, EmptyContactBoxThrows) {
  auto mesh = make_unit_mesh(3, 3);
  EXPECT_THROW(mesh.add_contact_box("x", 10.0, 11.0, 10.0, 11.0),
               std::logic_error);
}

TEST(TensorMesh2d, ControlVolumeHalfWidths) {
  sm::Grid1d xg({0.0, 1.0, 3.0});
  sm::Grid1d yg({0.0, 2.0});
  const sm::TensorMesh2d mesh(xg, yg);
  EXPECT_DOUBLE_EQ(mesh.dx_minus(0), 0.0);   // boundary
  EXPECT_DOUBLE_EQ(mesh.dx_plus(0), 0.5);
  EXPECT_DOUBLE_EQ(mesh.dx_minus(1), 0.5);
  EXPECT_DOUBLE_EQ(mesh.dx_plus(1), 1.0);
  EXPECT_DOUBLE_EQ(mesh.dx_plus(2), 0.0);    // boundary
}
