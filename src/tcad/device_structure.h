#pragma once

/// \file device_structure.h
/// Discretized MOSFET cross-section for the drift–diffusion solver: the
/// tensor mesh (oxide + silicon), per-node doping sampled from the
/// analytic profile, and the four contacts (source, drain, gate, bulk).
///
/// Coordinates follow doping::MosfetGeometry: x = 0 at the channel
/// centre, y = 0 at the Si/SiO2 interface, oxide at y in [-tox, 0),
/// silicon below. The gate contact sits on the oxide top face; source
/// and drain are surface contacts over the diffusions; bulk is the
/// bottom face.

#include <vector>

#include "compact/device_spec.h"
#include "mesh/mesh2d.h"

namespace subscale::tcad {

/// Mesh-resolution knobs (defaults give ~1000-node meshes that solve in
/// tens of milliseconds per bias point; refine for accuracy studies).
struct MeshOptions {
  double surface_spacing = 0.4e-9;  ///< vertical spacing at the interface
  double junction_spacing = 1.0e-9; ///< lateral spacing at the junctions
  double grading_ratio = 1.35;      ///< geometric growth away from them
  std::size_t oxide_layers = 3;     ///< vertical cells through the oxide
};

/// The interactive-latency preset: what `--coarse-mesh` studies and
/// sweep queries solve on, and what tests use when solve cost, not
/// accuracy, matters.
inline constexpr MeshOptions kCoarseMesh{.surface_spacing = 0.6e-9,
                                         .junction_spacing = 1.5e-9};

class DeviceStructure {
 public:
  /// Throws std::invalid_argument, naming the contact, when a source or
  /// drain node does not carry the source/drain doping type or a bulk
  /// node the body type (an ohmic contact on the wrong silicon).
  DeviceStructure(const compact::DeviceSpec& spec,
                  const MeshOptions& options = {});

  const compact::DeviceSpec& spec() const { return spec_; }
  const mesh::TensorMesh2d& mesh() const { return mesh_; }

  /// Signed net doping N_d - N_a per node [m^-3]; zero in the oxide.
  const std::vector<double>& net_doping() const { return net_doping_; }
  /// Total |N_d| + |N_a| per node [m^-3] (mobility degradation input).
  const std::vector<double>& total_doping() const { return total_doping_; }

  bool is_silicon(std::size_t node) const {
    return mesh_.material_at(node) == mesh::Material::kSilicon;
  }
  /// True if the finite-volume edge between two adjacent nodes lies in
  /// silicon (both endpoints silicon) — carriers only flow there.
  bool silicon_edge(std::size_t a, std::size_t b) const {
    return is_silicon(a) && is_silicon(b);
  }

  /// Intrinsic density and thermal voltage at the spec's temperature.
  double ni() const { return ni_; }
  double vt() const { return vt_; }

  /// Dirichlet potential of a contact node at applied bias `v` [V]
  /// (includes the ohmic/neutral or gate work-function offset).
  double contact_potential(std::size_t node, double v) const;

  /// Equilibrium ohmic carrier densities at a contact node [m^-3].
  void ohmic_carriers(std::size_t node, double* n_out, double* p_out) const;

  /// True when the node belongs to any contact.
  bool is_contact(std::size_t node) const {
    return !mesh_.contact_of(node).empty();
  }

 private:
  compact::DeviceSpec spec_;
  mesh::TensorMesh2d mesh_;
  std::vector<double> net_doping_;
  std::vector<double> total_doping_;
  double ni_ = 0.0;
  double vt_ = 0.0;
  double gate_offset_ = 0.0;
};

/// Factory keyed by the spec's backend kind — the one construction path
/// the simulator stack uses. The 2-D planar mesh only represents bulk
/// MOSFETs; a nanowire/GAA spec throws std::invalid_argument naming the
/// backend (the nanowire backend is compact-model only: its cylindrical
/// electrostatics have no cross-section in this mesh).
DeviceStructure make_device_structure(const compact::DeviceSpec& spec,
                                      const MeshOptions& options = {});

}  // namespace subscale::tcad
