#include "circuits/ring_oscillator.h"

#include <stdexcept>
#include <vector>

#include "circuits/netlist.h"
#include "circuits/transient.h"

namespace subscale::circuits {

namespace {

constexpr std::size_t kSettlePeriods = 2;  ///< discarded start-up periods
constexpr std::size_t kMeasurePeriods = 3;

}  // namespace

RingResult simulate_ring(const InverterDevices& inv,
                         const RingOptions& options) {
  if (options.stages < 3 || options.stages % 2 == 0) {
    throw std::invalid_argument("simulate_ring: stages must be odd and >= 3");
  }
  const double vdd = inv.vdd;
  Circuit circuit;
  const NodeId rail = circuit.add_fixed_node("vdd", vdd);

  std::vector<NodeId> nodes(options.stages);
  for (std::size_t s = 0; s < options.stages; ++s) {
    nodes[s] = circuit.add_node("r" + std::to_string(s));
  }
  const double c_load = inv.stage_capacitance();
  for (std::size_t s = 0; s < options.stages; ++s) {
    const NodeId in = nodes[(s + options.stages - 1) % options.stages];
    const NodeId out = nodes[s];
    circuit.add_mosfet(inv.nfet, out, in, circuit.ground());
    circuit.add_mosfet(inv.pfet, out, in, rail);
    circuit.add_capacitor(out, circuit.ground(), c_load);
  }

  // Start from an alternating pattern (not the metastable mid-rail point).
  std::vector<double> v0(circuit.node_count(), 0.0);
  v0[rail] = vdd;
  for (std::size_t s = 0; s < options.stages; ++s) {
    v0[nodes[s]] = (s % 2 == 0) ? vdd : 0.0;
  }

  const double i_drive = inv.nfet->drain_current(vdd, 0.5 * vdd);
  const double tau = c_load * vdd / i_drive;
  const double dt = tau / 30.0;

  TransientSim sim(circuit, v0);
  const NodeId probe = nodes[0];
  const double v_half = 0.5 * vdd;

  std::vector<double> rising_times;
  const std::size_t needed = kSettlePeriods + kMeasurePeriods + 1;
  double v_prev = sim.voltage(probe);
  double t_prev = 0.0;
  const std::size_t max_steps =
      needed * options.stages * 2 * 200;  // generous budget
  for (std::size_t step = 0; step < max_steps; ++step) {
    sim.step(dt);
    const double v_now = sim.voltage(probe);
    if (v_prev < v_half && v_now >= v_half) {
      const double t_frac = (v_half - v_prev) / (v_now - v_prev);
      rising_times.push_back(t_prev + t_frac * dt);
      if (rising_times.size() >= needed) break;
    }
    v_prev = v_now;
    t_prev = sim.time();
  }
  if (rising_times.size() < needed) {
    throw std::runtime_error("simulate_ring: oscillation did not settle");
  }

  const double span = rising_times.back() - rising_times[kSettlePeriods];
  RingResult result;
  result.period = span / static_cast<double>(kMeasurePeriods);
  result.frequency = 1.0 / result.period;
  result.stage_delay =
      result.period / (2.0 * static_cast<double>(options.stages));
  return result;
}

}  // namespace subscale::circuits
