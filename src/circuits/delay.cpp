#include "circuits/delay.h"

#include <cmath>
#include <stdexcept>

#include "circuits/dc_solver.h"
#include "circuits/netlist.h"
#include "circuits/transient.h"

namespace subscale::circuits {

namespace {

/// Step budget of one transition before it counts as never crossing.
constexpr std::size_t kMaxSteps = 200000;

/// Simulate one output transition and return the 50 % crossing time.
/// `rising_input` selects the input step direction (true -> output falls).
double transition_delay(const InverterDevices& inv, bool rising_input,
                        const DelayOptions& options) {
  const double vdd = inv.vdd;
  Circuit circuit;
  const NodeId rail = circuit.add_fixed_node("vdd", vdd);
  const NodeId in = circuit.add_fixed_node("in", rising_input ? 0.0 : vdd);
  const NodeId out = circuit.add_node("out");
  circuit.add_mosfet(inv.nfet, out, in, circuit.ground());
  circuit.add_mosfet(inv.pfet, out, in, rail);
  const double cl = inv.stage_capacitance();
  circuit.add_capacitor(out, circuit.ground(), cl);

  const DcResult dc = solve_dc(circuit);
  if (!dc.converged) {
    throw std::runtime_error("transition_delay: DC solve failed");
  }

  // Drive the step and integrate. The discharge current scale sets dt.
  circuit.set_fixed_voltage(in, rising_input ? vdd : 0.0);
  const double i_drive = rising_input
                             ? inv.nfet->drain_current(vdd, 0.5 * vdd)
                             : inv.pfet->drain_current(vdd, 0.5 * vdd);
  if (i_drive <= 0.0) {
    throw std::runtime_error("transition_delay: no drive current");
  }
  const double tau = cl * vdd / i_drive;
  const double dt = tau / static_cast<double>(options.steps_per_tau);

  TransientSim sim(circuit, dc.voltages);
  const double v_half = 0.5 * vdd;
  double v_prev = sim.voltage(out);
  double t_prev = 0.0;
  for (std::size_t step = 0; step < kMaxSteps; ++step) {
    sim.step(dt);
    const double v_now = sim.voltage(out);
    const bool crossed = rising_input ? (v_prev > v_half && v_now <= v_half)
                                      : (v_prev < v_half && v_now >= v_half);
    if (crossed) {
      // Linear interpolation inside the step.
      const double t_frac = (v_half - v_prev) / (v_now - v_prev);
      return t_prev + t_frac * dt;
    }
    v_prev = v_now;
    t_prev = sim.time();
  }
  throw std::runtime_error("transition_delay: output never crossed 50%");
}

}  // namespace

DelayResult fo1_delay(const InverterDevices& inv, const DelayOptions& options) {
  DelayResult result;
  result.tphl = transition_delay(inv, /*rising_input=*/true, options);
  result.tplh = transition_delay(inv, /*rising_input=*/false, options);
  result.tp = 0.5 * (result.tphl + result.tplh);
  return result;
}

double analytical_delay(const InverterDevices& inv, double kd) {
  const double cl = inv.stage_capacitance();
  const double ion_n = inv.nfet->drain_current(inv.vdd, inv.vdd);
  const double ion_p = inv.pfet->drain_current(inv.vdd, inv.vdd);
  const double ion = 0.5 * (ion_n + ion_p);
  return kd * cl * inv.vdd / ion;
}

double fit_kd(const InverterDevices& inv, const DelayOptions& options) {
  const double simulated = fo1_delay(inv, options).tp;
  const double unit = analytical_delay(inv, 1.0);
  return simulated / unit;
}

}  // namespace subscale::circuits
