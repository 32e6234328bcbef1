#include "circuits/dc_solver.h"

#include <stdexcept>

#include "circuits/nodal.h"
#include "linalg/newton.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace subscale::circuits {

namespace {

constexpr double kResidualTolerance = 1e-15;  ///< [A]; sub-pA circuits
constexpr std::size_t kMaxIterations = 300;
constexpr double kMaxStep = 0.3;  ///< Newton voltage-step clamp [V]

}  // namespace

DcResult solve_dc(const Circuit& circuit,
                  const std::vector<double>& initial_guess) {
  NodalSystem system(circuit);
  const std::size_t n = system.size();
  std::vector<double> x(n, 0.0);
  linalg::NewtonResult newton{.converged = true};
  if (n > 0) {
    if (!initial_guess.empty() &&
        initial_guess.size() != circuit.node_count()) {
      throw std::invalid_argument("solve_dc: initial guess size mismatch");
    }
    if (!initial_guess.empty()) system.gather(initial_guess, x);
    linalg::NewtonWorkspace workspace(n);
    newton = linalg::newton_solve(
        [&](const std::vector<double>& xs, std::vector<double>& f,
            linalg::DenseMatrix& jac) { system.evaluate(xs, f, jac); },
        x, workspace,
        {.max_iterations = kMaxIterations,
         .residual_tolerance = kResidualTolerance,
         .step_tolerance = 1e-15,
         .max_step = kMaxStep});
  }
  if (obs::MetricsRegistry* reg = obs::default_registry(); reg != nullptr) {
    reg->counter(obs::names::kDcSolves).add();
    reg->counter(obs::names::kDcNewtonIterations).add(newton.iterations);
    if (!newton.converged) reg->counter(obs::names::kDcFailures).add();
  }

  DcResult result;
  result.voltages = system.voltages_at(x);
  result.converged = newton.converged;
  result.iterations = newton.iterations;
  result.residual_norm = newton.residual_norm;
  return result;
}

double rail_current(const Circuit& circuit, NodeId rail,
                    const std::vector<double>& voltages) {
  // Current out of the rail node into the devices.
  return circuit.node_device_current(rail, voltages) -
         circuit.gmin() * voltages[rail];
}

}  // namespace subscale::circuits
