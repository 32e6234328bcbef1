#include "tcad/device_structure.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "doping/mosfet_doping.h"
#include "mesh/grid1d.h"
#include "physics/constants.h"
#include "physics/fermi.h"
#include "physics/silicon.h"

namespace subscale::tcad {

namespace {

// Deep-profile completion: a retrograde well (extra body-type doping
// switching on below the junctions) that suppresses sub-surface
// punch-through, as every real process does. It does not alter the
// surface channel, so the paper's four surface scaling parameters keep
// their meaning.
constexpr double kWellMultiplier = 10.0;      ///< extra doping / N_sub
constexpr double kWellOnsetFactor = 0.9;      ///< onset depth / x_j
constexpr double kWellStraggleFactor = 0.5;   ///< straggle / x_j

mesh::TensorMesh2d build_mesh(const compact::DeviceSpec& spec,
                              const MeshOptions& opt) {
  const auto& g = spec.geometry;
  const double le = g.leff();
  const double x_out = 0.5 * le + 2.0 * g.lov + g.lsd;
  const double merge_tol = 0.05e-9;

  // ---- x grid: fine at the metallurgical junctions ------------------
  mesh::Grid1d xg;
  xg.add_ticks(mesh::double_graded_ticks(-0.5 * le, 0.5 * le,
                                         opt.junction_spacing,
                                         opt.grading_ratio));
  xg.add_ticks(mesh::graded_ticks({.x0 = 0.5 * le,
                                   .x1 = x_out,
                                   .h0 = opt.junction_spacing,
                                   .ratio = opt.grading_ratio}));
  {
    // Mirror of the drain-side grading for the source side.
    const auto right = mesh::graded_ticks({.x0 = 0.5 * le,
                                           .x1 = x_out,
                                           .h0 = opt.junction_spacing,
                                           .ratio = opt.grading_ratio});
    for (double t : right) xg.add_point(-t);
  }
  xg.add_point(-0.5 * g.lpoly);
  xg.add_point(0.5 * g.lpoly);
  xg.finalize(merge_tol);

  // ---- y grid: oxide layer + graded silicon depth -------------------
  mesh::Grid1d yg;
  // The interface tick is 0.0 itself: -tox + ox_h * oxide_layers can
  // round to a hair above it (-2.07e-25 m at tox 1.70 and 1.53 nm), and
  // finalize() would keep that tick in place of 0.0, lifting the silicon
  // surface row out of the source/drain diffusions.
  const double ox_h = g.tox / static_cast<double>(opt.oxide_layers);
  for (std::size_t k = 0; k < opt.oxide_layers; ++k) {
    yg.add_point(-g.tox + ox_h * static_cast<double>(k));
  }
  yg.add_point(0.0);
  yg.add_ticks(mesh::graded_ticks({.x0 = 0.0,
                                   .x1 = g.substrate_depth,
                                   .h0 = opt.surface_spacing,
                                   .ratio = opt.grading_ratio}));
  yg.add_point(g.xj);
  yg.add_point(g.halo_depth);
  yg.finalize(merge_tol);

  mesh::TensorMesh2d m(std::move(xg), std::move(yg));

  // Oxide occupies y < 0 (interface nodes at y = 0 belong to silicon).
  m.set_material_box(mesh::Material::kOxide, -x_out, x_out, -g.tox,
                     -0.25 * ox_h);

  // ---- contacts ------------------------------------------------------
  // Gate: oxide top face over the physical gate.
  m.add_contact_box("gate", -0.5 * g.lpoly, 0.5 * g.lpoly, -g.tox, -g.tox);
  // Source/drain: surface contacts over the diffusions, clear of the
  // gate edge by a couple of junction spacings.
  const double inner = 0.5 * le + g.lov + 2.0 * opt.junction_spacing;
  m.add_contact_box("source", -x_out, -inner, 0.0, 0.0);
  m.add_contact_box("drain", inner, x_out, 0.0, 0.0);
  // Bulk: the whole bottom face.
  m.add_contact_box("bulk", -x_out, x_out, g.substrate_depth,
                    g.substrate_depth);
  return m;
}

}  // namespace

DeviceStructure::DeviceStructure(const compact::DeviceSpec& spec,
                                 const MeshOptions& options)
    : spec_(spec), mesh_(build_mesh(spec, options)) {
  spec_.validate();
  ni_ = physics::intrinsic_density_legacy(spec_.temperature);
  vt_ = physics::thermal_voltage(spec_.temperature);

  auto base_profile =
      doping::make_mosfet_profile(spec_.polarity, spec_.geometry, spec_.levels);
  auto full_profile = std::make_shared<doping::Superposition>();
  full_profile->add(std::move(base_profile));
  const auto body_species = spec_.polarity == doping::Polarity::kNfet
                                ? doping::Species::kAcceptor
                                : doping::Species::kDonor;
  full_profile->add(std::make_shared<doping::RetrogradeWell>(
      body_species, kWellMultiplier * spec_.levels.nsub,
      kWellOnsetFactor * spec_.geometry.xj,
      kWellStraggleFactor * spec_.geometry.xj));
  const std::shared_ptr<const doping::DopingProfile> profile = full_profile;
  const std::size_t n = mesh_.node_count();
  net_doping_.assign(n, 0.0);
  total_doping_.assign(n, 0.0);
  for (std::size_t j = 0; j < mesh_.ny(); ++j) {
    for (std::size_t i = 0; i < mesh_.nx(); ++i) {
      const std::size_t idx = mesh_.index(i, j);
      if (!is_silicon(idx)) continue;
      const double x = mesh_.x(i);
      const double y = mesh_.y(j);
      net_doping_[idx] = profile->net(x, y);
      total_doping_[idx] = profile->total(x, y);
    }
  }

  // Every ohmic contact must sit on silicon of its own type: source and
  // drain on the source/drain diffusions, bulk on the body. A contact on
  // the other type pins an equilibrium Gummel cannot hold (the 45/32 nm
  // meshes before their surface row sat at y = 0 stalled 1.0–2.4 s per
  // device there), so it fails here, by name.
  const double sd_sign =
      spec_.polarity == doping::Polarity::kNfet ? 1.0 : -1.0;
  for (const char* contact : {"source", "drain", "bulk"}) {
    const bool body = std::string_view(contact) == "bulk";
    const double sign = body ? -sd_sign : sd_sign;
    for (const std::size_t idx : mesh_.contact_nodes(contact)) {
      if (sign * net_doping_[idx] > 0.0) continue;
      char detail[160];
      std::snprintf(detail, sizeof detail,
                    " contact node %zu at (%.2f, %.2f) nm has net doping "
                    "%.3g m^-3, not the %s-type %s doping it needs",
                    idx, mesh_.x(mesh_.i_of(idx)) * 1e9,
                    mesh_.y(mesh_.j_of(idx)) * 1e9, net_doping_[idx],
                    sign > 0.0 ? "n" : "p", body ? "body" : "source/drain");
      throw std::invalid_argument(std::string("DeviceStructure: ") +
                                  contact + detail);
    }
  }

  // Gate work function: degenerate poly of the source/drain species
  // (n+ poly for NFET, p+ for PFET).
  const double poly_doping = spec_.levels.nsd;
  const double offset =
      vt_ * std::asinh(poly_doping / (2.0 * ni_));
  gate_offset_ = (spec_.polarity == doping::Polarity::kNfet) ? offset : -offset;
}

double DeviceStructure::contact_potential(std::size_t node, double v) const {
  const std::string& name = mesh_.contact_of(node);
  if (name.empty()) {
    throw std::invalid_argument("contact_potential: not a contact node");
  }
  if (name == "gate") {
    return v + gate_offset_;
  }
  return v + physics::neutral_potential(net_doping_[node], ni_, vt_);
}

void DeviceStructure::ohmic_carriers(std::size_t node, double* n_out,
                                     double* p_out) const {
  // Compute the MAJORITY carrier from the quadratic (no cancellation),
  // then the minority via np = ni^2. The naive symmetric formula loses
  // the minority density to cancellation once |N| > ~1e8 * ni.
  const double nd = net_doping_[node];
  const double root = std::sqrt(nd * nd + 4.0 * ni_ * ni_);
  if (nd >= 0.0) {
    const double n = 0.5 * (nd + root);
    *n_out = n;
    *p_out = ni_ * ni_ / n;
  } else {
    const double p = 0.5 * (-nd + root);
    *p_out = p;
    *n_out = ni_ * ni_ / p;
  }
}

DeviceStructure make_device_structure(const compact::DeviceSpec& spec,
                                      const MeshOptions& options) {
  switch (spec.backend) {
    case compact::BackendKind::kBulkMosfet:
      return DeviceStructure(spec, options);
    case compact::BackendKind::kNanowireGaa:
      break;
  }
  throw std::invalid_argument(
      std::string("make_device_structure: no TCAD mesh for backend '") +
      compact::backend_kind_name(spec.backend) +
      "' (the planar 2-D cross-section only represents bulk MOSFETs; "
      "nanowire decks validate through the compact backend)");
}

}  // namespace subscale::tcad
