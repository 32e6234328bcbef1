#pragma once

/// \file transient.h
/// Backward-Euler transient simulation (L-stable — the right choice for
/// the stiff exponential dynamics of subthreshold circuits, where node
/// time-constants span six orders of magnitude between on and off states).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/netlist.h"
#include "circuits/nodal.h"
#include "linalg/newton.h"
#include "obs/metrics.h"

namespace subscale::circuits {

/// Integrates the circuit's node equations in time. Inputs are changed by
/// calling Circuit::set_fixed_voltage between steps (the circuit is held
/// by reference and not owned). The circuit's topology is compiled into a
/// NodalSystem at construction, so a step allocates nothing. The steps and
/// Newton iterations of a simulation are added to the default registry's
/// circuits.tran.* counters once, when it is destroyed.
class TransientSim {
 public:
  /// \param initial_voltages  full per-node voltage vector (e.g. from
  ///        solve_dc); fixed nodes are re-imposed at each step.
  TransientSim(Circuit& circuit, std::vector<double> initial_voltages);
  TransientSim(const TransientSim&) = delete;
  TransientSim& operator=(const TransientSim&) = delete;
  ~TransientSim();

  /// Advance one backward-Euler step of length dt [s].
  /// Throws std::runtime_error if the step's Newton fails to converge, and
  /// std::logic_error if nodes, MOSFETs or capacitors were added to the
  /// circuit since construction.
  void step(double dt);

  double time() const { return time_; }
  const std::vector<double>& voltages() const { return v_; }
  double voltage(NodeId node) const { return v_[node]; }

 private:
  Circuit& circuit_;
  std::vector<double> v_;
  double time_ = 0.0;
  // The topology the system was compiled from.
  std::size_t nodes_;
  std::size_t mosfets_;
  std::size_t capacitors_;
  NodalSystem system_;
  linalg::NewtonWorkspace workspace_;
  std::vector<double> x_;  ///< free-node unknowns
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* iterations_counter_ = nullptr;
  std::uint64_t steps_ = 0;
  std::uint64_t iterations_ = 0;
};

}  // namespace subscale::circuits
