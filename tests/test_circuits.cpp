#include <gtest/gtest.h>

#include <cmath>

#include "circuits/chain.h"
#include "circuits/dc_solver.h"
#include "circuits/delay.h"
#include "circuits/inverter.h"
#include "circuits/netlist.h"
#include "circuits/ring_oscillator.h"
#include "circuits/sram6t.h"
#include "circuits/transient.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "core/scaling_study.h"
#include "physics/units.h"

namespace cc = subscale::circuits;
namespace sc = subscale::compact;
namespace sd = subscale::doping;
namespace su = subscale::units;

namespace {

/// The paper's 90nm super-V_th NFET (Table 2, first column).
sc::DeviceSpec nfet_90() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 65, 2.10, 1.52e18,
                                  3.63e18, 1.2, 1.0);
}

/// 32nm super-V_th NFET (Table 2, last column).
sc::DeviceSpec nfet_32() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 22, 1.53, 3.31e18,
                                  12.0e18, 0.9, 0.343);
}

cc::InverterDevices inverter_90() { return cc::make_inverter(nfet_90()); }

}  // namespace

// ---- netlist ---------------------------------------------------------------------

TEST(Netlist, GroundAndNodes) {
  cc::Circuit c;
  EXPECT_EQ(c.ground(), 0u);
  EXPECT_TRUE(c.is_fixed(c.ground()));
  EXPECT_DOUBLE_EQ(c.fixed_voltage(c.ground()), 0.0);
  const auto n1 = c.add_node("a");
  const auto n2 = c.add_fixed_node("vdd", 1.2);
  EXPECT_FALSE(c.is_fixed(n1));
  EXPECT_TRUE(c.is_fixed(n2));
  EXPECT_DOUBLE_EQ(c.fixed_voltage(n2), 1.2);
  EXPECT_THROW(c.fixed_voltage(n1), std::invalid_argument);
  EXPECT_THROW(c.set_fixed_voltage(n1, 1.0), std::invalid_argument);
  c.set_fixed_voltage(n2, 1.0);
  EXPECT_DOUBLE_EQ(c.fixed_voltage(n2), 1.0);
  EXPECT_EQ(c.free_nodes().size(), 1u);
}

TEST(Netlist, ElementValidation) {
  cc::Circuit c;
  const auto out = c.add_node("out");
  EXPECT_THROW(c.add_mosfet(nullptr, out, out, out), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor(out, 99, 1e-15), std::out_of_range);
  EXPECT_THROW(c.add_capacitor(out, c.ground(), -1e-15),
               std::invalid_argument);
  c.add_capacitor(out, c.ground(), 2e-15);
  EXPECT_DOUBLE_EQ(c.node_total_capacitance(out), 2e-15);
}

// ---- DC solver --------------------------------------------------------------------

TEST(DcSolver, InverterLogicLevels) {
  const auto inv = inverter_90();
  cc::Circuit c;
  const auto vdd = c.add_fixed_node("vdd", inv.vdd);
  const auto in = c.add_fixed_node("in", 0.0);
  const auto out = c.add_node("out");
  c.add_mosfet(inv.nfet, out, in, c.ground());
  c.add_mosfet(inv.pfet, out, in, vdd);

  auto result = cc::solve_dc(c);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.voltages[out], inv.vdd, 0.01);  // input low -> out high

  c.set_fixed_voltage(in, inv.vdd);
  result = cc::solve_dc(c, result.voltages);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.voltages[out], 0.0, 0.01);
}

TEST(DcSolver, RailCurrentEqualsLeakage) {
  const auto inv = inverter_90();
  cc::Circuit c;
  const auto vdd = c.add_fixed_node("vdd", inv.vdd);
  const auto in = c.add_fixed_node("in", 0.0);
  const auto out = c.add_node("out");
  c.add_mosfet(inv.nfet, out, in, c.ground());
  c.add_mosfet(inv.pfet, out, in, vdd);
  const auto result = cc::solve_dc(c);
  ASSERT_TRUE(result.converged);
  // Input low: rail current equals the NFET off-state leakage.
  const double i_rail = cc::rail_current(c, vdd, result.voltages);
  EXPECT_NEAR(i_rail / cc::inverter_leakage(inv, false), 1.0, 0.05);
}

TEST(DcSolver, NoFreeNodesTrivial) {
  cc::Circuit c;
  const auto result = cc::solve_dc(c);
  EXPECT_TRUE(result.converged);
}

// ---- inverter construction -----------------------------------------------------------

TEST(Inverter, BalancedSubthresholdCurrents) {
  const auto inv = inverter_90();
  const double i_n = inv.nfet->drain_current(0.15, 0.15);
  const double i_p = inv.pfet->drain_current(0.15, 0.15);
  EXPECT_NEAR(i_n / i_p, 1.0, 1e-6);
  EXPECT_GT(inv.pfet->spec().width, inv.nfet->spec().width);
}

TEST(Inverter, CapacitanceAccounting) {
  const auto inv = inverter_90();
  EXPECT_GT(inv.fanout_capacitance(), 0.0);
  EXPECT_GT(inv.wire_capacitance(), 0.0);
  EXPECT_DOUBLE_EQ(
      inv.stage_capacitance(),
      1.5 * (inv.fanout_capacitance() + inv.wire_capacitance()));
  EXPECT_THROW(inv.at_vdd(0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(inv.at_vdd(0.25).vdd, 0.25);
}

// ---- VTC / SNM ------------------------------------------------------------------------

TEST(Vtc, MonotoneAndRailToRail) {
  const auto inv = inverter_90().at_vdd(0.25);
  const auto curve = cc::compute_vtc(inv, 101);
  EXPECT_NEAR(curve.vout.front(), 0.25, 0.01);
  EXPECT_NEAR(curve.vout.back(), 0.0, 0.01);
  for (std::size_t i = 0; i + 1 < curve.vout.size(); ++i) {
    EXPECT_GE(curve.vout[i], curve.vout[i + 1] - 1e-12) << "i=" << i;
  }
}

TEST(Vtc, BalancedInverterSwitchesNearMidRail) {
  const auto inv = inverter_90().at_vdd(0.25);
  const double v_mid = cc::vtc_output(inv, 0.125);
  EXPECT_NEAR(v_mid, 0.125, 0.025);
}

TEST(Vtc, GainExceedsUnityInTransition) {
  const auto inv = inverter_90().at_vdd(0.25);
  const auto nm = cc::noise_margins(inv);
  EXPECT_LT(nm.peak_gain, -1.5);
  EXPECT_LT(nm.vil, nm.vih);
  EXPECT_GT(nm.snm, 0.0);
  EXPECT_LT(nm.snm, 0.125);
  EXPECT_GT(nm.voh, nm.vol);
}

TEST(Vtc, SnmGrowsWithSupply) {
  const auto inv = inverter_90();
  const double snm_250 = cc::noise_margins(inv.at_vdd(0.25)).snm;
  const double snm_400 = cc::noise_margins(inv.at_vdd(0.40)).snm;
  EXPECT_GT(snm_400, snm_250);
}

TEST(Vtc, PaperTrendSnmDegradesWithScalingAt250mV) {
  // Fig. 4: more than 10 % SNM degradation from 90nm to 32nm at 250 mV.
  const auto inv90 = inverter_90().at_vdd(0.25);
  const auto inv32 = cc::make_inverter(nfet_32()).at_vdd(0.25);
  const double snm90 = cc::noise_margins(inv90).snm;
  const double snm32 = cc::noise_margins(inv32).snm;
  EXPECT_LT(snm32, snm90);
  EXPECT_GT((snm90 - snm32) / snm90, 0.05);
}

TEST(Vtc, ButterflySnmOfSymmetricLatch) {
  const auto inv = inverter_90().at_vdd(0.3);
  const auto curve = cc::compute_vtc(inv, 301);
  const double snm = cc::butterfly_snm(curve, curve);
  EXPECT_GT(snm, 0.02);
  EXPECT_LT(snm, 0.15);
}

// ---- transient & delay ----------------------------------------------------------------

TEST(Transient, InverterOutputSwitchesRailToRail) {
  const auto inv = inverter_90();
  cc::Circuit c;
  const auto vdd = c.add_fixed_node("vdd", inv.vdd);
  const auto in = c.add_fixed_node("in", 0.0);
  const auto out = c.add_node("out");
  c.add_mosfet(inv.nfet, out, in, c.ground());
  c.add_mosfet(inv.pfet, out, in, vdd);
  c.add_capacitor(out, c.ground(), inv.fanout_capacitance());
  auto dc = cc::solve_dc(c);
  ASSERT_TRUE(dc.converged);

  c.set_fixed_voltage(in, inv.vdd);
  cc::TransientSim sim(c, dc.voltages);
  const double tau = inv.fanout_capacitance() * inv.vdd /
                     inv.nfet->drain_current(inv.vdd, inv.vdd);
  for (int i = 0; i < 2000; ++i) sim.step(tau / 20.0);
  EXPECT_NEAR(sim.voltage(out), 0.0, 0.01);
  EXPECT_GT(sim.time(), 0.0);
}

TEST(Transient, RejectsBadSteps) {
  const auto inv = inverter_90();
  cc::Circuit c;
  c.add_fixed_node("vdd", inv.vdd);
  cc::TransientSim sim(c, std::vector<double>(c.node_count(), 0.0));
  EXPECT_THROW(sim.step(0.0), std::invalid_argument);
  EXPECT_THROW(cc::TransientSim(c, std::vector<double>(99, 0.0)),
               std::invalid_argument);
}

TEST(Transient, StepThrowsWhenTopologyChangedSinceConstruction) {
  // The simulation compiles its stamps once; growing the circuit under it
  // must fail loudly instead of stepping a stale system.
  const auto inv = inverter_90();
  const auto build = [&](cc::Circuit& c) {
    const auto vdd = c.add_fixed_node("vdd", inv.vdd);
    const auto out = c.add_node("out");
    c.add_mosfet(inv.nfet, out, c.ground(), c.ground());
    c.add_mosfet(inv.pfet, out, c.ground(), vdd);
    c.add_capacitor(out, c.ground(), inv.fanout_capacitance());
    return out;
  };
  const double dt = 1e-12;
  for (int change = 0; change < 3; ++change) {
    cc::Circuit c;
    const auto out = build(c);
    cc::TransientSim sim(c, std::vector<double>(c.node_count(), 0.0));
    sim.step(dt);
    if (change == 0) c.add_node("extra");
    if (change == 1) c.add_mosfet(inv.nfet, out, c.ground(), c.ground());
    if (change == 2) c.add_capacitor(out, c.ground(), 1e-15);
    EXPECT_THROW(sim.step(dt), std::logic_error) << "change " << change;
  }
}

TEST(Transient, LinearRcFollowsTheBackwardEulerClosedForm) {
  // A capacitor C from a stepped input to a free node that discharges
  // through gmin g: backward Euler gives v_k = V (1 + g dt / C)^-k. The
  // system is linear, so Newton reaches each step's solution in one
  // iteration and only rounding separates the engine from the formula.
  const double cap = 1e-15;
  const double g = 1e-12;
  const double v_step = 0.25;  // inside the Newton step clamp
  const double dt = 0.05 * cap / g;
  cc::Circuit c;
  c.set_gmin(g);
  const auto in = c.add_fixed_node("in", 0.0);
  const auto x = c.add_node("x");
  c.add_capacitor(in, x, cap);
  cc::TransientSim sim(c, std::vector<double>(c.node_count(), 0.0));
  c.set_fixed_voltage(in, v_step);
  for (int k = 1; k <= 60; ++k) {
    sim.step(dt);
    const double want = v_step * std::pow(1.0 + g * dt / cap, -k);
    EXPECT_NEAR(sim.voltage(x) / want, 1.0, 1e-12) << "step " << k;
  }
}

TEST(Delay, NominalInPicoseconds) {
  const auto r = cc::fo1_delay(inverter_90());
  EXPECT_GT(su::to_ps(r.tp), 0.5);
  EXPECT_LT(su::to_ps(r.tp), 500.0);
  EXPECT_GT(r.tphl, 0.0);
  EXPECT_GT(r.tplh, 0.0);
}

TEST(Delay, SubthresholdExponentiallySlower) {
  const auto inv = inverter_90();
  const double tp_nom = cc::fo1_delay(inv).tp;
  const double tp_sub = cc::fo1_delay(inv.at_vdd(0.25)).tp;
  EXPECT_GT(tp_sub, 100.0 * tp_nom);  // kHz-MHz vs GHz class
}

TEST(Delay, BackwardEulerErrorIsFirstOrderAndUnderOnePercent) {
  // Backward Euler is first order in dt: halving the step halves the t_p
  // error, so successive differences shrink about 2x, and 2 t_240 - t_120
  // (Richardson) estimates the converged delay. The default 60 steps per
  // tau must sit within 1 % of it on all 12 paper figure inverters.
  const subscale::core::ScalingStudy paper;
  for (std::size_t i = 0; i < paper.node_count(); ++i) {
    for (const auto& inv : {paper.super_inverter(i, paper.node(i).vdd),
                            paper.super_inverter(i, 0.25),
                            paper.sub_inverter(i, 0.25)}) {
      const double t60 = cc::fo1_delay(inv, {.steps_per_tau = 60}).tp;
      const double t120 = cc::fo1_delay(inv, {.steps_per_tau = 120}).tp;
      const double t240 = cc::fo1_delay(inv, {.steps_per_tau = 240}).tp;
      const double ratio = (t60 - t120) / (t120 - t240);
      EXPECT_GE(ratio, 1.8) << "node " << i << " vdd=" << inv.vdd;
      EXPECT_LE(ratio, 2.2) << "node " << i << " vdd=" << inv.vdd;
      const double richardson = 2.0 * t240 - t120;
      EXPECT_LE(std::abs(t60 - richardson) / richardson, 0.01)
          << "node " << i << " vdd=" << inv.vdd;
    }
  }
}

TEST(Delay, AnalyticalTracksSimulated) {
  const auto inv = inverter_90();
  const double kd = cc::fit_kd(inv);
  EXPECT_GT(kd, 0.2);
  EXPECT_LT(kd, 3.0);
  // With the fitted kd the two must agree by construction.
  EXPECT_NEAR(cc::analytical_delay(inv, kd) / cc::fo1_delay(inv).tp, 1.0,
              1e-9);
}

// ---- chain energy & Vmin -----------------------------------------------------------------

TEST(Chain, EnergyComponentsAddUp) {
  const auto inv = inverter_90();
  const auto r = cc::chain_energy(inv, 0.3);
  EXPECT_DOUBLE_EQ(r.e_total, r.e_dynamic + r.e_leakage);
  EXPECT_GT(r.e_dynamic, 0.0);
  EXPECT_GT(r.e_leakage, 0.0);
  EXPECT_DOUBLE_EQ(r.cycle_time, 30.0 * r.stage_delay);
}

TEST(Chain, LeakageDominatesAtVeryLowVdd) {
  const auto inv = inverter_90();
  const auto low = cc::chain_energy(inv, 0.12);
  const auto high = cc::chain_energy(inv, 0.6);
  EXPECT_GT(low.e_leakage / low.e_dynamic, 1.0);
  EXPECT_LT(high.e_leakage / high.e_dynamic, 0.5);
}

TEST(Chain, SimulatedChainDelayMatchesPerStage) {
  // Full-circuit chain delay vs 8x the step-input FO1 delay. Real stages
  // see sloped inputs, so the per-stage delay runs ~1.3-1.8x the
  // step-input figure — the ratio just has to be stable and O(1).
  const auto inv = inverter_90();
  const double chain = cc::simulate_chain_delay(inv, inv.vdd, 8);
  const double stage = cc::fo1_delay(inv).tp;
  const double ratio = chain / (8.0 * stage);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 2.5);
}

TEST(Vmin, ExistsInsideBracket) {
  const auto inv = inverter_90();
  const auto r = cc::find_vmin(inv);
  EXPECT_GT(r.vmin, 0.12);
  EXPECT_LT(r.vmin, 0.55);
  // It is a minimum: nearby points cost more energy.
  const double e_lo = cc::chain_energy(inv, r.vmin - 0.05).e_total;
  const double e_hi = cc::chain_energy(inv, r.vmin + 0.05).e_total;
  EXPECT_GT(e_lo, r.at_vmin.e_total);
  EXPECT_GT(e_hi, r.at_vmin.e_total);
}

// ---- ring oscillator -------------------------------------------------------------------

TEST(Ring, OscillatesAndMatchesDelay) {
  const auto inv = inverter_90();
  const auto ring = cc::simulate_ring(inv, {.stages = 5});
  EXPECT_GT(ring.frequency, 0.0);
  // Ring stages see sloped inputs, so per-stage delay exceeds the
  // step-input FO1 figure by a stable O(1) factor.
  const double tp = cc::fo1_delay(inv).tp;
  const double ratio = ring.stage_delay / tp;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 2.5);
  EXPECT_THROW(cc::simulate_ring(inv, {.stages = 4}), std::invalid_argument);
}

// ---- SRAM -------------------------------------------------------------------------------

TEST(Sram, HoldSnmPositiveInSubthreshold) {
  const auto cell = cc::make_sram_cell(nfet_90());
  auto sub_cell = cell;
  sub_cell.vdd = 0.3;
  EXPECT_GT(cc::sram_hold_snm(sub_cell), 0.02);
}

TEST(Sram, ReadSnmSmallerThanHold) {
  auto cell = cc::make_sram_cell(nfet_90());
  cell.vdd = 0.3;
  const double hold = cc::sram_hold_snm(cell);
  const double read = cc::sram_read_snm(cell);
  EXPECT_GT(read, 0.0);
  EXPECT_LT(read, hold);
}

TEST(Sram, CellRatioImprovesReadSnm) {
  auto weak = cc::make_sram_cell(nfet_90(), /*cell_ratio=*/1.0);
  auto strong = cc::make_sram_cell(nfet_90(), /*cell_ratio=*/3.0);
  weak.vdd = strong.vdd = 0.3;
  EXPECT_GT(cc::sram_read_snm(strong), cc::sram_read_snm(weak));
}

// ---- parameterized sweep: SNM across supplies ----------------------------------------------

class SnmSupplySweep : public ::testing::TestWithParam<double> {};

TEST_P(SnmSupplySweep, SnmScalesWithVddButSublinearly) {
  const double vdd = GetParam();
  const auto inv = inverter_90().at_vdd(vdd);
  const auto nm = cc::noise_margins(inv);
  EXPECT_GT(nm.snm, 0.0);
  EXPECT_LT(nm.snm, 0.5 * vdd);
  EXPECT_GT(nm.snm, 0.15 * vdd);
}

INSTANTIATE_TEST_SUITE_P(Supplies, SnmSupplySweep,
                         ::testing::Values(0.2, 0.25, 0.3, 0.4));
