#pragma once

/// \file mesh2d.h
/// Tensor-product rectilinear 2-D mesh with per-node material labels and
/// named contact (Dirichlet boundary) sets. Node (i, j) sits at
/// (x[i], y[j]). The linear index runs along the shorter axis first:
/// i * ny + j when ny < nx, otherwise j * nx + i (x fastest, also on a
/// tie). A 5-point stencil then couples nodes at most min(nx, ny) apart
/// (see bandwidth()); a banded LU costs O(n * band^2), so numbering along
/// the short axis is the cheap one. A TCAD system numbers only its
/// unknowns, in this order (number_rows), so its band is at most that.
/// Every caller maps through index/i_of/j_of.
///
/// Convention for MOSFET cross-sections: x runs along the channel
/// (source -> drain), y runs downward into the device (y = 0 at the gate
/// oxide top, increasing into the substrate).

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mesh/grid1d.h"

namespace subscale::mesh {

enum class Material : unsigned char {
  kSilicon,
  kOxide,
};

/// Finite-volume (box-method) tensor mesh.
class TensorMesh2d {
 public:
  TensorMesh2d(Grid1d x_grid, Grid1d y_grid);

  std::size_t nx() const { return x_.size(); }
  std::size_t ny() const { return y_.size(); }
  std::size_t node_count() const { return nx() * ny(); }

  double x(std::size_t i) const { return x_[i]; }
  double y(std::size_t j) const { return y_[j]; }
  const Grid1d& x_grid() const { return x_; }
  const Grid1d& y_grid() const { return y_; }

  std::size_t index(std::size_t i, std::size_t j) const {
    return y_fastest_ ? i * ny() + j : j * nx() + i;
  }
  std::size_t i_of(std::size_t idx) const {
    return y_fastest_ ? idx / ny() : idx % nx();
  }
  std::size_t j_of(std::size_t idx) const {
    return y_fastest_ ? idx % ny() : idx / nx();
  }
  /// Largest |index(a) - index(b)| over 4-neighbour pairs: min(nx, ny).
  /// A system over some of the nodes (number_rows) has a band of at most
  /// this.
  std::size_t bandwidth() const { return y_fastest_ ? ny() : nx(); }

  // ---- control volumes (box method) ---------------------------------

  /// Half-widths of the control volume around tick i of the x grid.
  double dx_minus(std::size_t i) const {
    return (i == 0) ? 0.0 : 0.5 * (x_[i] - x_[i - 1]);
  }
  double dx_plus(std::size_t i) const {
    return (i + 1 == nx()) ? 0.0 : 0.5 * (x_[i + 1] - x_[i]);
  }
  double dy_minus(std::size_t j) const {
    return (j == 0) ? 0.0 : 0.5 * (y_[j] - y_[j - 1]);
  }
  double dy_plus(std::size_t j) const {
    return (j + 1 == ny()) ? 0.0 : 0.5 * (y_[j + 1] - y_[j]);
  }
  /// Control-volume area of node (i, j) (per metre of device width).
  double box_area(std::size_t i, std::size_t j) const {
    return (dx_minus(i) + dx_plus(i)) * (dy_minus(j) + dy_plus(j));
  }

  // ---- materials ------------------------------------------------------

  /// Assign a material to all nodes inside [x0, x1] x [y0, y1] (inclusive
  /// with tolerance).
  void set_material_box(Material m, double x0, double x1, double y0, double y1);

  Material material(std::size_t i, std::size_t j) const {
    return materials_[index(i, j)];
  }
  Material material_at(std::size_t idx) const { return materials_[idx]; }

  // ---- contacts -------------------------------------------------------

  /// Tag all nodes inside the closed box as belonging to a named contact.
  /// A node may belong to at most one contact.
  void add_contact_box(const std::string& name, double x0, double x1,
                       double y0, double y1);

  /// Node indices of a contact (throws if unknown).
  const std::vector<std::size_t>& contact_nodes(const std::string& name) const;

  bool has_contact(const std::string& name) const {
    return contacts_.count(name) > 0;
  }

  /// Contact name owning node idx, or empty string.
  const std::string& contact_of(std::size_t idx) const {
    return contact_of_node_[idx];
  }

  std::vector<std::string> contact_names() const;

 private:
  Grid1d x_;
  Grid1d y_;
  bool y_fastest_ = false;  ///< ny < nx: number along y first
  std::vector<Material> materials_;
  std::map<std::string, std::vector<std::size_t>> contacts_;
  std::vector<std::string> contact_of_node_;
};

/// The rows of a system whose unknowns are some of a mesh's nodes: those
/// nodes in index order, and the band a 5-point stencil among them has.
struct RowMap {
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  std::vector<std::size_t> node;  ///< row -> mesh node
  std::vector<std::size_t> row;   ///< mesh node -> row, or kNoRow
  /// Largest |row(a) - row(b)| over 4-neighbour pairs of rows, which is
  /// at most TensorMesh2d::bandwidth().
  std::size_t band = 0;
};

/// Number the nodes for which `is_row` holds.
RowMap number_rows(const TensorMesh2d& m,
                   const std::function<bool(std::size_t)>& is_row);

}  // namespace subscale::mesh
