#include <gtest/gtest.h>

#include "cache/solve_cache.h"
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
  const double vdd = sco::kVddSubthreshold;
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
  const double vdd = sco::kVddSubthreshold;
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

TEST(ScalingStudy, StrategyOptionsComeFromTheCard) {
  // The study designs both strategies with the card's device
  // environment and sub-V_th leakage anchor: bit for bit what the
  // strategy layer returns for options built from the card.
  namespace scl = subscale::scaling;
  namespace cards = subscale::cards;
  cards::TechnologyCard ioff50 = cards::paper_bulk_lstp();
  ioff50.id = "paper_bulk_lstp_ioff50";
  ioff50.subvth_ioff_pa_um = 50.0;
  const auto& calib = subscale::compact::paper_calibration();
  const auto expect_same = [](const scl::DesignedDevice& got,
                              const scl::DesignedDevice& want,
                              const cards::TechnologyCard& card) {
    EXPECT_EQ(got.spec.levels.nsub, want.spec.levels.nsub) << card.id;
    EXPECT_EQ(got.spec.levels.np_halo, want.spec.levels.np_halo) << card.id;
    EXPECT_EQ(got.spec.geometry.lpoly, want.spec.geometry.lpoly) << card.id;
    EXPECT_EQ(got.vth_sat_mv, want.vth_sat_mv) << card.id;
    EXPECT_EQ(got.ioff_pa_um, want.ioff_pa_um) << card.id;
    EXPECT_EQ(got.ss_mv_dec, want.ss_mv_dec) << card.id;
    EXPECT_EQ(got.tau_ps, want.tau_ps) << card.id;
    EXPECT_EQ(got.spec.temperature, card.env.temperature) << card.id;
    EXPECT_EQ(got.spec.backend, card.env.backend) << card.id;
  };
  for (const cards::TechnologyCard& card :
       {cards::paper_bulk_hot350(), cards::nanowire_gaa(), ioff50}) {
    sco::StudyOptions options;
    options.card = card;
    const sco::ScalingStudy study(calib, options);
    const std::vector<scl::NodeInput> nodes = card.resolved_nodes();

    const auto super =
        scl::supervth_roadmap(nodes, calib, {.env = card.env});
    ASSERT_EQ(study.super_devices().size(), super.size()) << card.id;
    for (std::size_t i = 0; i < super.size(); ++i) {
      expect_same(study.super_devices()[i], super[i], card);
    }

    const auto sub = scl::subvth_roadmap(
        nodes, {.ioff_pa_um = card.subvth_ioff_pa_um, .env = card.env},
        calib);
    ASSERT_EQ(study.sub_devices().size(), sub.size()) << card.id;
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const scl::SubVthDevice& got = study.sub_devices()[i];
      EXPECT_EQ(got.lpoly_opt_nm, sub[i].lpoly_opt_nm) << card.id;
      EXPECT_EQ(got.energy_factor_raw, sub[i].energy_factor_raw) << card.id;
      EXPECT_EQ(got.delay_factor_raw, sub[i].delay_factor_raw) << card.id;
      expect_same(got.device, sub[i].device, card);
      EXPECT_NEAR(got.device.ioff_pa_um / card.subvth_ioff_pa_um, 1.0, 1e-6)
          << card.id;
    }
  }
}

TEST(ScalingStudy, DesignNeverTouchesTheSolveCache) {
  // Both roadmaps are pure compact-model arithmetic: designing them
  // reads and writes neither the process default cache nor the run
  // context's own cache.
  namespace sca = subscale::cache;
  sca::SolveCache fallback{sca::CacheOptions{}};
  sca::SolveCache explicit_cache{sca::CacheOptions{}};
  sca::set_default_cache(&fallback);
  sco::StudyOptions options;
  options.run.cache = &explicit_cache;
  const sco::ScalingStudy designed(subscale::compact::paper_calibration(),
                                   options);
  designed.super_devices();
  designed.sub_devices();
  sca::set_default_cache(nullptr);
  for (const sca::SolveCache* cache : {&fallback, &explicit_cache}) {
    const sca::SolveCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.stores, 0u);
  }
}

TEST(ScalingStudy, TcadValidationDegradesGracefully) {
  // Study-level resilience: a permanently faulted bias window loses one
  // sweep point, which is recorded in the node's report while the rest
  // of the sweep (and the study) carries on.
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
}
