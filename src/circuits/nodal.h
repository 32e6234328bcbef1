#pragma once

/// \file nodal.h
/// A Circuit compiled once for nodal analysis: the free nodes become the
/// unknowns (rows, in creation order), and every element becomes a stamp
/// holding its rows. solve_dc and TransientSim run the same Newton solver
/// (linalg/newton.h) on it. See DESIGN.md §19.
///
/// Order contract: each MOSFET is evaluated once per residual and
/// scattered to its drain and source rows, so a row accumulates, from
/// 0.0, its MOSFETs in insertion order (drain before source), then gmin,
/// then (in a transient step) its capacitors in insertion order — the
/// order Circuit::node_device_current sums one node in.
///
/// The Jacobian is stamped from the same DeviceModel::evaluate call:
/// g_ds on the drain column, g_m on the gate column and -(g_m + g_ds) on
/// the source column of the drain row, negated on the source row; gmin on
/// the diagonal; C/dt (+ on a capacitor's own rows, - across) in a step.

#include <cstddef>
#include <vector>

#include "circuits/netlist.h"
#include "linalg/dense.h"

namespace subscale::circuits {

class NodalSystem {
 public:
  /// Compiles `circuit`'s topology. The circuit must outlive the system;
  /// its fixed-node voltages and gmin are read by load_fixed().
  explicit NodalSystem(const Circuit& circuit);

  /// Number of unknowns (free nodes).
  std::size_t size() const { return free_.size(); }

  /// Re-read the fixed-node voltages (rails and driven inputs) and gmin.
  void load_fixed();

  /// Free-node entries of a full per-node voltage vector.
  void gather(const std::vector<double>& voltages,
              std::vector<double>& x) const;

  /// The full per-node voltage vector with the free nodes at `x`.
  const std::vector<double>& voltages_at(const std::vector<double>& x);

  /// Make the capacitors backward-Euler companions C (dv - dv_old) / dt of
  /// a step of length `dt` from the full voltage vector `v_old`. Until the
  /// first call they are open (a DC operating point).
  void set_step(double dt, const std::vector<double>& v_old);

  /// f = F(x), the current out of every free node (KCL residual), and
  /// jac = dF/dx, from one DeviceModel::evaluate per MOSFET.
  void evaluate(const std::vector<double>& x, std::vector<double>& f,
                linalg::DenseMatrix& jac);

 private:
  static constexpr std::size_t kFixed = static_cast<std::size_t>(-1);

  struct FetStamp {
    const compact::DeviceModel* model;
    bool is_n;
    NodeId drain;
    NodeId gate;
    NodeId source;
    std::size_t drain_row;
    std::size_t gate_row;
    std::size_t source_row;
  };
  struct CapStamp {
    NodeId a;
    NodeId b;
    double capacitance;
    std::size_t a_row;
    std::size_t b_row;
  };

  const Circuit& circuit_;
  std::vector<NodeId> free_;
  std::vector<FetStamp> fets_;
  std::vector<CapStamp> caps_;
  std::vector<double> v_;       ///< full per-node voltages
  std::vector<double> dv_old_;  ///< per capacitor, at the step's start
  double gmin_ = 0.0;
  double dt_ = 0.0;             ///< 0: capacitors open
};

}  // namespace subscale::circuits
