#include "mesh/mesh2d.h"

#include <algorithm>
#include <stdexcept>

namespace subscale::mesh {

namespace {
// Geometric containment tolerance: device dimensions are nanometres, so a
// femtometre slack absorbs floating-point noise without ever grabbing a
// neighbouring tick.
constexpr double kGeomTol = 1e-15;
}  // namespace

TensorMesh2d::TensorMesh2d(Grid1d x_grid, Grid1d y_grid)
    : x_(std::move(x_grid)),
      y_(std::move(y_grid)),
      y_fastest_(y_.size() < x_.size()),
      materials_(x_.size() * y_.size(), Material::kSilicon),
      contact_of_node_(x_.size() * y_.size()) {}

void TensorMesh2d::set_material_box(Material m, double x0, double x1,
                                    double y0, double y1) {
  for (std::size_t j = 0; j < ny(); ++j) {
    if (y_[j] < y0 - kGeomTol || y_[j] > y1 + kGeomTol) continue;
    for (std::size_t i = 0; i < nx(); ++i) {
      if (x_[i] < x0 - kGeomTol || x_[i] > x1 + kGeomTol) continue;
      materials_[index(i, j)] = m;
    }
  }
}

void TensorMesh2d::add_contact_box(const std::string& name, double x0,
                                   double x1, double y0, double y1) {
  auto& nodes = contacts_[name];
  for (std::size_t j = 0; j < ny(); ++j) {
    if (y_[j] < y0 - kGeomTol || y_[j] > y1 + kGeomTol) continue;
    for (std::size_t i = 0; i < nx(); ++i) {
      if (x_[i] < x0 - kGeomTol || x_[i] > x1 + kGeomTol) continue;
      const std::size_t idx = index(i, j);
      if (!contact_of_node_[idx].empty() && contact_of_node_[idx] != name) {
        throw std::logic_error("TensorMesh2d: node already owned by contact " +
                               contact_of_node_[idx]);
      }
      if (contact_of_node_[idx].empty()) {
        contact_of_node_[idx] = name;
        nodes.push_back(idx);
      }
    }
  }
  if (nodes.empty()) {
    throw std::logic_error("TensorMesh2d: contact box '" + name +
                           "' contains no mesh nodes");
  }
}

const std::vector<std::size_t>& TensorMesh2d::contact_nodes(
    const std::string& name) const {
  const auto it = contacts_.find(name);
  if (it == contacts_.end()) {
    throw std::out_of_range("TensorMesh2d: unknown contact '" + name + "'");
  }
  return it->second;
}

RowMap number_rows(const TensorMesh2d& m,
                   const std::function<bool(std::size_t)>& is_row) {
  RowMap rows;
  rows.row.assign(m.node_count(), RowMap::kNoRow);
  for (std::size_t idx = 0; idx < m.node_count(); ++idx) {
    if (!is_row(idx)) continue;
    rows.row[idx] = rows.node.size();
    rows.node.push_back(idx);
  }
  // A node's E and N neighbours have higher indices, so rows too.
  for (std::size_t r = 0; r < rows.node.size(); ++r) {
    const std::size_t i = m.i_of(rows.node[r]);
    const std::size_t j = m.j_of(rows.node[r]);
    for (const std::size_t nb :
         {i + 1 < m.nx() ? m.index(i + 1, j) : RowMap::kNoRow,
          j + 1 < m.ny() ? m.index(i, j + 1) : RowMap::kNoRow}) {
      if (nb != RowMap::kNoRow && rows.row[nb] != RowMap::kNoRow) {
        rows.band = std::max(rows.band, rows.row[nb] - r);
      }
    }
  }
  return rows;
}

std::vector<std::string> TensorMesh2d::contact_names() const {
  std::vector<std::string> names;
  names.reserve(contacts_.size());
  for (const auto& [name, nodes] : contacts_) names.push_back(name);
  return names;
}

}  // namespace subscale::mesh
