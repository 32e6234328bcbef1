#include "circuits/transient.h"

#include <algorithm>
#include <stdexcept>

#include "circuits/dc_solver.h"
#include "obs/names.h"

namespace subscale::circuits {

namespace {

constexpr double kNewtonTolerance = 1e-15;  ///< [A]
constexpr std::size_t kMaxNewtonIterations = 200;
constexpr double kMaxStep = 0.3;  ///< Newton voltage clamp per iteration [V]

}  // namespace

TransientSim::TransientSim(Circuit& circuit,
                           std::vector<double> initial_voltages)
    : circuit_(circuit),
      v_(std::move(initial_voltages)),
      nodes_(circuit.node_count()),
      mosfets_(circuit.mosfets().size()),
      capacitors_(circuit.capacitors().size()),
      system_(circuit),
      workspace_(system_.size()),
      x_(system_.size()) {
  if (v_.size() != circuit_.node_count()) {
    throw std::invalid_argument("TransientSim: initial voltage size mismatch");
  }
  if (obs::MetricsRegistry* reg = obs::default_registry(); reg != nullptr) {
    steps_counter_ = &reg->counter(obs::names::kTranSteps);
    iterations_counter_ = &reg->counter(obs::names::kTranNewtonIterations);
  }
}

TransientSim::~TransientSim() {
  if (steps_counter_ != nullptr) {
    steps_counter_->add(steps_);
    iterations_counter_->add(iterations_);
  }
}

void TransientSim::step(double dt) {
  if (dt <= 0.0) {
    throw std::invalid_argument("TransientSim::step: dt must be positive");
  }
  if (circuit_.node_count() != nodes_ ||
      circuit_.mosfets().size() != mosfets_ ||
      circuit_.capacitors().size() != capacitors_) {
    throw std::logic_error(
        "TransientSim::step: circuit topology changed since construction");
  }
  // Impose (possibly updated) fixed-node voltages for the new time point.
  system_.load_fixed();
  system_.set_step(dt, v_);
  system_.gather(v_, x_);

  const linalg::NewtonResult newton = linalg::newton_solve(
      [&](const std::vector<double>& x, std::vector<double>& f,
          linalg::DenseMatrix& jac) { system_.evaluate(x, f, jac); },
      x_, workspace_,
      {.max_iterations = kMaxNewtonIterations,
       .residual_tolerance = kNewtonTolerance,
       .step_tolerance = 1e-16,
       .max_step = kMaxStep});
  ++steps_;
  iterations_ += newton.iterations;
  if (!newton.converged) {
    throw std::runtime_error("TransientSim::step: Newton did not converge");
  }

  const std::vector<double>& v = system_.voltages_at(x_);
  std::copy(v.begin(), v.end(), v_.begin());
  time_ += dt;
}

double TransientSim::rail_device_current(NodeId rail) const {
  return rail_current(circuit_, rail, v_);
}

}  // namespace subscale::circuits
