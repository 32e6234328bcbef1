/// The golden regression tier: recompute the paper-table/figure headline
/// values and compare them against the checked-in fixtures under
/// tests/golden/ (regenerate DELIBERATELY with tools/golden_gen when a
/// PR means to move the physics). The second half of the suite pins the
/// caching contract: the same quantities computed with the solve cache
/// cold, warm, disabled, and after deliberate on-disk corruption must
/// agree BITWISE — the cache may only change how fast an answer arrives,
/// never which answer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cache/solve_cache.h"
#include "cards/technology_card.h"
#include "circuits/delay.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "compact/device_model.h"
#include "compact/mosfet.h"
#include "core/scaling_study.h"
#include "physics/units.h"
#include "scaling/subvth_strategy.h"
#include "scaling/technology.h"

namespace fs = std::filesystem;
namespace sca = subscale::cache;
namespace ss = subscale::scaling;

namespace {

constexpr double kRelTol = 1e-9;

/// Parse a fixture's flat "values" block (one "key": value per line —
/// the io::JsonWriter layout golden_gen emits).
std::map<std::string, double> load_fixture(const std::string& name) {
  const std::string path =
      std::string(SUBSCALE_GOLDEN_DIR) + "/" + name + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (run tools/golden_gen)";
  std::map<std::string, double> out;
  std::string line;
  bool in_values = false;
  while (std::getline(in, line)) {
    if (!in_values) {
      if (line.find("\"values\": {") != std::string::npos) in_values = true;
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const std::size_t k0 = line.find('"');
    const std::size_t k1 = line.find('"', k0 + 1);
    const std::size_t colon = line.find(':', k1);
    if (k0 == std::string::npos || k1 == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    out[line.substr(k0 + 1, k1 - k0 - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

void expect_matches(const std::map<std::string, double>& golden,
                    const std::string& key, double computed) {
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end()) << "fixture has no key " << key;
  const double pinned = it->second;
  const double scale = std::max(std::abs(pinned), 1e-300);
  EXPECT_LE(std::abs(computed - pinned) / scale, kRelTol)
      << key << ": pinned " << pinned << ", computed " << computed;
}

/// One shared study per process (the expensive part of this suite).
const subscale::core::ScalingStudy& study() {
  static const subscale::core::ScalingStudy s;
  return s;
}

struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-golden-cache-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
  }
  ~TempCacheDir() { fs::remove_all(path); }
};

/// Small-but-real design problem for the caching-path equivalence tests
/// (default options would redo the full Table 3 design per run).
ss::SubVthOptions quick_options(sca::SolveCache* cache) {
  ss::SubVthOptions opt;
  opt.lpoly_scan_points = 5;
  opt.split_iterations = 2;
  opt.cache = cache;
  return opt;
}

}  // namespace

// ---- fixture comparisons ----------------------------------------------------

TEST(Golden, Table2SupervthRoadmap) {
  const auto golden = load_fixture("table2_supervth");
  ASSERT_FALSE(golden.empty());
  for (const auto& d : study().super_devices()) {
    const std::string n = d.node.name + ".";
    expect_matches(golden, n + "lpoly_nm", d.node.lpoly_nm);
    expect_matches(golden, n + "nsub_cm3", d.nsub_cm3);
    expect_matches(golden, n + "nhalo_net_cm3", d.nhalo_net_cm3);
    expect_matches(golden, n + "vth_sat_mv", d.vth_sat_mv);
    expect_matches(golden, n + "ioff_pa_um", d.ioff_pa_um);
    expect_matches(golden, n + "ss_mv_dec", d.ss_mv_dec);
    expect_matches(golden, n + "tau_ps", d.tau_ps);
  }
}

TEST(Golden, Table3SubvthRoadmap) {
  const auto golden = load_fixture("table3_subvth");
  ASSERT_FALSE(golden.empty());
  for (const auto& d : study().sub_devices()) {
    const std::string n = d.device.node.name + ".";
    expect_matches(golden, n + "lpoly_opt_nm", d.lpoly_opt_nm);
    expect_matches(golden, n + "nsub_cm3", d.device.nsub_cm3);
    expect_matches(golden, n + "nhalo_net_cm3", d.device.nhalo_net_cm3);
    expect_matches(golden, n + "vth_sat_mv", d.device.vth_sat_mv);
    expect_matches(golden, n + "ioff_pa_um", d.device.ioff_pa_um);
    expect_matches(golden, n + "ss_mv_dec", d.device.ss_mv_dec);
    expect_matches(golden, n + "tau_ps", d.device.tau_ps);
    expect_matches(golden, n + "energy_factor_raw", d.energy_factor_raw);
    expect_matches(golden, n + "delay_factor_raw", d.delay_factor_raw);
  }
}

TEST(Golden, Fig02SsAndIonIoff) {
  const auto golden = load_fixture("fig02_ss_ionioff");
  ASSERT_FALSE(golden.empty());
  for (const auto& d : study().super_devices()) {
    const std::string n = d.node.name + ".";
    expect_matches(golden, n + "ss_mv_dec", d.ss_mv_dec);
    const subscale::compact::CompactMosfet fet(d.spec,
                                               study().calibration());
    const double ion = fet.drain_current(d.node.vdd, d.node.vdd);
    expect_matches(golden, n + "log10_ion_ioff",
                   std::log10(ion / fet.ioff()));
  }
}

TEST(Golden, Fig09LpolyAndSs) {
  const auto golden = load_fixture("fig09_lpoly_ss");
  ASSERT_FALSE(golden.empty());
  for (const auto& d : study().sub_devices()) {
    const std::string n = d.device.node.name + ".";
    expect_matches(golden, n + "lpoly_opt_nm", d.lpoly_opt_nm);
    expect_matches(golden, n + "ss_mv_dec", d.device.ss_mv_dec);
  }
}

TEST(Golden, NanowireIdVgAndSwing) {
  // The same fixed GAA device golden_gen pins: compact backend #2 may
  // only move when the fixture is regenerated deliberately.
  namespace u = subscale::units;
  const auto golden = load_fixture("nanowire_idvg");
  ASSERT_FALSE(golden.empty());
  const auto& card = subscale::cards::nanowire_gaa();
  const auto& node = ss::paper_nodes()[0];
  subscale::doping::MosfetDopingLevels levels;
  levels.nsub = u::per_cm3(1e18);
  levels.np_halo = 0.0;
  const auto spec = ss::make_node_spec(node, node.lpoly_nm, levels,
                                       node.vdd, card.env);
  const auto fet =
      subscale::compact::make_device_model(spec, study().calibration());
  expect_matches(golden, "ss_mv_dec", fet->subthreshold_swing() * 1e3);
  expect_matches(golden, "vth_sat_mv", fet->vth_sat_extracted() * 1e3);
  expect_matches(golden, "ioff_pa_um",
                 u::to_pA_per_um(fet->ioff() / spec.width));
  for (int i = 0; i < 10; ++i) {
    const double vg = 0.05 * i;
    expect_matches(golden, "log10_id." + std::to_string(i),
                   std::log10(fet->drain_current(vg, 0.25)));
  }
}

TEST(Golden, CircuitFigures) {
  // Figs. 4/5/10/11 (SNM and FO1 t_p) and 6/12 (chain V_min and
  // E/cycle) on both strategies' devices, as golden_gen pins them.
  namespace cc = subscale::circuits;
  using subscale::core::Strategy;
  const auto golden = load_fixture("circuits_paper");
  ASSERT_FALSE(golden.empty());
  const double vdd_sub = subscale::core::kVddSubthreshold;
  for (std::size_t i = 0; i < study().node_count(); ++i) {
    for (const Strategy s : {Strategy::kSuperVth, Strategy::kSubVth}) {
      const bool sub = s == Strategy::kSubVth;
      const std::string n = std::string(subscale::core::strategy_name(s)) +
                            "." + study().node(i).name + ".";
      const cc::InverterDevices inv = sub
                                          ? study().sub_inverter(i, vdd_sub)
                                          : study().super_inverter(i, vdd_sub);
      expect_matches(golden, n + "snm_250mV", cc::noise_margins(inv).snm);
      expect_matches(golden, n + "tp_250mV", cc::fo1_delay(inv).tp);
      if (!sub) {
        expect_matches(golden, n + "tp_nominal",
                       cc::fo1_delay(inv.at_vdd(study().node(i).vdd)).tp);
      }
      const cc::VminResult vmin = cc::find_vmin(inv);
      expect_matches(golden, n + "vmin", vmin.vmin);
      expect_matches(golden, n + "e_vmin", vmin.at_vmin.e_total);
    }
  }
}

// ---- cache-path equivalence -------------------------------------------------

TEST(GoldenCache, CachedAndUncachedDesignsAgreeBitwise) {
  const auto& node = ss::paper_nodes()[0];
  const auto& calib = study().calibration();

  // Disabled-cache reference.
  const ss::SubVthDevice plain =
      ss::design_subvth_device(node, quick_options(nullptr), calib);

  TempCacheDir dir;
  sca::CacheOptions copt;
  copt.dir = dir.path.string();
  sca::SolveCache cold_cache{copt};
  const ss::SubVthDevice cold =
      ss::design_subvth_device(node, quick_options(&cold_cache), calib);
  EXPECT_GT(cold_cache.stats().stores, 0u);

  // Fresh instance on the populated directory: replay from disk.
  sca::SolveCache warm_cache{copt};
  const ss::SubVthDevice warm =
      ss::design_subvth_device(node, quick_options(&warm_cache), calib);
  EXPECT_GT(warm_cache.stats().hits, 0u);

  // Bitwise — not approximately: the cache must never change an answer.
  EXPECT_EQ(plain.lpoly_opt_nm, cold.lpoly_opt_nm);
  EXPECT_EQ(plain.lpoly_opt_nm, warm.lpoly_opt_nm);
  EXPECT_EQ(plain.energy_factor_raw, cold.energy_factor_raw);
  EXPECT_EQ(plain.energy_factor_raw, warm.energy_factor_raw);
  EXPECT_EQ(plain.delay_factor_raw, warm.delay_factor_raw);
  EXPECT_EQ(plain.device.nsub_cm3, warm.device.nsub_cm3);
  EXPECT_EQ(plain.device.ss_mv_dec, warm.device.ss_mv_dec);
}

TEST(GoldenCache, CorruptedCacheStillYieldsTheGoldenAnswer) {
  const auto& node = ss::paper_nodes()[0];
  const auto& calib = study().calibration();
  const ss::SubVthDevice plain =
      ss::design_subvth_device(node, quick_options(nullptr), calib);

  TempCacheDir dir;
  sca::CacheOptions copt;
  copt.dir = dir.path.string();
  {
    sca::SolveCache populate{copt};
    ss::design_subvth_device(node, quick_options(&populate), calib);
  }
  // Damage every record on disk: truncate some, scribble over others.
  std::size_t damaged = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (!entry.is_regular_file()) continue;
    std::ofstream out(entry.path(),
                      std::ios::binary | std::ios::trunc);
    if (damaged % 2 == 0) out << "garbage";
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  sca::SolveCache corrupted{copt};
  const ss::SubVthDevice recovered =
      ss::design_subvth_device(node, quick_options(&corrupted), calib);
  EXPECT_GT(corrupted.stats().corrupt, 0u);
  EXPECT_EQ(plain.lpoly_opt_nm, recovered.lpoly_opt_nm);
  EXPECT_EQ(plain.energy_factor_raw, recovered.energy_factor_raw);
  EXPECT_EQ(plain.device.ss_mv_dec, recovered.device.ss_mv_dec);
}
