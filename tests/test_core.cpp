#include <gtest/gtest.h>

#include "circuits/vtc.h"
#include "circuits/vmin.h"
#include "core/scaling_study.h"

namespace cc = subscale::circuits;
namespace sco = subscale::core;

// The ScalingStudy facade is the entry point the benches use; these are
// integration tests across the whole stack (strategies -> devices ->
// circuits).

namespace {

const sco::ScalingStudy& study() {
  static const sco::ScalingStudy s;
  return s;
}

}  // namespace

TEST(ScalingStudy, CachesRoadmaps) {
  const auto& a = study().super_devices();
  const auto& b = study().super_devices();
  EXPECT_EQ(&a, &b);  // same object: computed once
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(study().sub_devices().size(), 4u);
}

TEST(ScalingStudy, InverterAccessorsValidateIndex) {
  EXPECT_THROW(study().super_inverter(7, 0.25), std::out_of_range);
  EXPECT_THROW(study().sub_inverter(7, 0.25), std::out_of_range);
  const auto inv = study().super_inverter(0, 0.25);
  EXPECT_DOUBLE_EQ(inv.vdd, 0.25);
}

TEST(ScalingStudy, PaperHeadlineSnmComparison) {
  // Fig. 10: at the 32nm node the sub-V_th strategy's inverter SNM beats
  // the super-V_th strategy's by a double-digit percentage (paper: 19 %).
  const double vdd = study().options().vdd_subthreshold;
  const double snm_super =
      cc::noise_margins(study().super_inverter(3, vdd)).snm;
  const double snm_sub = cc::noise_margins(study().sub_inverter(3, vdd)).snm;
  const double gain = snm_sub / snm_super - 1.0;
  EXPECT_GT(gain, 0.10);
  EXPECT_LT(gain, 0.40);
}

TEST(ScalingStudy, PaperHeadlineEnergyComparison) {
  // Fig. 12: at the 32nm node the sub-V_th device consumes noticeably
  // less energy at V_min (paper: ~23 % less).
  const auto r_super = cc::find_vmin(study().super_inverter(3, 0.3));
  const auto r_sub = cc::find_vmin(study().sub_inverter(3, 0.3));
  const double saving = 1.0 - r_sub.at_vmin.e_total / r_super.at_vmin.e_total;
  EXPECT_GT(saving, 0.08);
  EXPECT_LT(saving, 0.45);
}

TEST(ScalingStudy, SubVthDelayScalesGracefully) {
  // Fig. 11: under the sub-V_th strategy, delay at 250 mV falls steadily
  // (paper: ~18 %/generation). The super-V_th curve is non-monotonic.
  const double vdd = study().options().vdd_subthreshold;
  double prev = 0.0;
  for (std::size_t i = 0; i < study().node_count(); ++i) {
    const double tp = cc::fo1_delay(study().sub_inverter(i, vdd)).tp;
    if (i > 0) {
      const double ratio = tp / prev;
      EXPECT_LT(ratio, 1.0) << "node " << i;
      EXPECT_GT(ratio, 0.55) << "node " << i;
    }
    prev = tp;
  }
}

TEST(ScalingStudy, TcadValidationDegradesGracefully) {
  // Study-level resilience: a permanently faulted bias window loses one
  // sweep point, which is recorded in the node's report while the rest
  // of the sweep (and the study) carries on. No throw in non-strict mode.
  namespace st = subscale::tcad;
  sco::TcadValidationOptions opt;
  opt.nodes = {0};  // the 90nm node only (TCAD solves are expensive)
  opt.points = 10;
  opt.mesh = st::kCoarseMesh;
  opt.gummel.fault.stage = st::SolveStage::kPoisson;
  opt.gummel.fault.count = 1'000'000'000;
  opt.gummel.fault.min_bias = 0.19;
  opt.gummel.fault.max_bias = 0.21;

  const auto results = study().tcad_validation(opt);
  ASSERT_EQ(results.size(), 1u);
  const auto& node = results[0];
  EXPECT_TRUE(node.error.empty());
  EXPECT_TRUE(node.usable());
  EXPECT_EQ(node.report.attempted, 10u);
  ASSERT_EQ(node.report.failures.size(), 1u);
  EXPECT_NEAR(node.report.failures.front().vg, 0.20, 1e-12);
  EXPECT_EQ(node.sweep.size(), 9u);

  // A device that cannot even reach equilibrium is reported as a node
  // error instead of aborting the validation run.
  opt.gummel.fault.min_bias = 0.0;
  const auto broken = study().tcad_validation(opt);
  ASSERT_EQ(broken.size(), 1u);
  EXPECT_FALSE(broken[0].error.empty());
  EXPECT_FALSE(broken[0].usable());
  EXPECT_NE(broken[0].error.find("Poisson"), std::string::npos)
      << broken[0].error;

  // Strict mode propagates the failure instead.
  opt.run.strict = true;
  EXPECT_THROW(study().tcad_validation(opt), st::SolverError);
}
