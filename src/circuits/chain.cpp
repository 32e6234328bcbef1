#include "circuits/chain.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuits/dc_solver.h"
#include "circuits/netlist.h"
#include "circuits/transient.h"

namespace subscale::circuits {

ChainEnergyResult chain_energy(const InverterDevices& devices, double vdd) {
  const InverterDevices inv = devices.at_vdd(vdd);

  ChainEnergyResult r;
  r.vdd = vdd;
  r.stage_delay = fo1_delay(inv).tp;
  r.cycle_time = static_cast<double>(kChainStages) * r.stage_delay;

  // Static current: alternate logic levels down the chain, summed stage
  // by stage (two distinct currents, each evaluated once).
  const double leak_high = inverter_leakage(inv, /*input_high=*/true);
  const double leak_low = inverter_leakage(inv, /*input_high=*/false);
  double i_leak = 0.0;
  for (std::size_t s = 0; s < kChainStages; ++s) {
    i_leak += (s % 2) == 0 ? leak_high : leak_low;
  }
  r.leakage_current = i_leak;

  const double c_stage = inv.stage_capacitance();
  r.e_dynamic = kChainActivity * static_cast<double>(kChainStages) *
                c_stage * vdd * vdd;
  r.e_leakage = i_leak * vdd * r.cycle_time;
  r.e_total = r.e_dynamic + r.e_leakage;
  return r;
}

double simulate_chain_delay(const InverterDevices& devices, double vdd,
                            std::size_t stages) {
  if (stages == 0) {
    throw std::invalid_argument("simulate_chain_delay: stages == 0");
  }
  const InverterDevices inv = devices.at_vdd(vdd);
  Circuit circuit;
  const NodeId rail = circuit.add_fixed_node("vdd", vdd);
  const NodeId in = circuit.add_fixed_node("in", 0.0);

  std::vector<NodeId> outs;
  NodeId prev = in;
  const double c_load = inv.stage_capacitance();
  for (std::size_t s = 0; s < stages; ++s) {
    const NodeId out = circuit.add_node("n" + std::to_string(s));
    circuit.add_mosfet(inv.nfet, out, prev, circuit.ground());
    circuit.add_mosfet(inv.pfet, out, prev, rail);
    circuit.add_capacitor(out, circuit.ground(), c_load);
    outs.push_back(out);
    prev = out;
  }

  // Seed Newton with the alternating logic levels the chain settles to.
  std::vector<double> guess(circuit.node_count(), 0.0);
  guess[rail] = vdd;
  for (std::size_t s = 0; s < stages; ++s) {
    guess[outs[s]] = (s % 2 == 0) ? vdd : 0.0;
  }
  const DcResult dc = solve_dc(circuit, guess);
  if (!dc.converged) {
    throw std::runtime_error("simulate_chain_delay: DC failed");
  }

  // Step the input; watch the last stage cross 50 %.
  circuit.set_fixed_voltage(in, vdd);
  const double i_drive = inv.nfet->drain_current(vdd, 0.5 * vdd);
  const double tau = c_load * vdd / i_drive;
  const double dt = tau / 12.0;  // coarser than fo1_delay: many stages
  const NodeId last = outs.back();
  const double v_half = 0.5 * vdd;
  const bool last_falls = (stages % 2) == 1;

  TransientSim sim(circuit, dc.voltages);
  double v_prev = sim.voltage(last);
  double t_prev = 0.0;
  const std::size_t max_steps = 400 * stages;
  for (std::size_t step = 0; step < max_steps; ++step) {
    sim.step(dt);
    const double v_now = sim.voltage(last);
    const bool crossed = last_falls ? (v_prev > v_half && v_now <= v_half)
                                    : (v_prev < v_half && v_now >= v_half);
    if (crossed) {
      const double t_frac = (v_half - v_prev) / (v_now - v_prev);
      return t_prev + t_frac * dt;
    }
    v_prev = v_now;
    t_prev = sim.time();
  }
  throw std::runtime_error("simulate_chain_delay: edge never arrived");
}

}  // namespace subscale::circuits
