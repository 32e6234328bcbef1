/// The golden regression tier: recompute the paper-table/figure headline
/// values and compare them against the checked-in fixtures under
/// tests/golden/ (regenerate DELIBERATELY with tools/golden_gen when a
/// PR means to move the physics). What each fixture holds is defined
/// once, in compact_golden_fixtures.h, for this suite and golden_gen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "compact_golden_fixtures.h"
#include "core/scaling_study.h"
#include "io/json_parse.h"

namespace sg = subscale::golden;
namespace sio = subscale::io;

namespace {

constexpr double kRelTol = 1e-9;

/// One shared study per process (the expensive part of this suite).
const subscale::core::ScalingStudy& study() {
  static const subscale::core::ScalingStudy s;
  return s;
}

/// Recompute the named fixture and hold tests/golden/<name>.json to it:
/// the file must carry exactly the computed keys, each within kRelTol.
void expect_fixture(const std::string& name) {
  const std::vector<sg::CompactFixture> fixtures = sg::compact_fixtures();
  const auto fixture =
      std::find_if(fixtures.begin(), fixtures.end(),
                   [&](const sg::CompactFixture& f) { return f.name == name; });
  ASSERT_NE(fixture, fixtures.end()) << "no compact fixture " << name;

  const std::string path =
      std::string(SUBSCALE_GOLDEN_DIR) + "/" + name + ".json";
  std::string error;
  const sio::JsonPtr doc = sio::json_parse_file(path, &error);
  ASSERT_NE(doc, nullptr) << path << ": " << error
                          << " (run tools/golden_gen)";
  EXPECT_EQ(doc->string_at("fixture"), name);
  const sio::JsonPtr pinned = doc->get("values");
  ASSERT_NE(pinned, nullptr) << path << " has no values";

  std::set<std::string> computed_keys;
  for (const auto& [key, computed] : fixture->values(study())) {
    computed_keys.insert(key);
    const sio::JsonPtr v = pinned->get(key);
    if (v == nullptr || v->kind() != sio::JsonValue::Kind::kNumber) {
      ADD_FAILURE() << name << ": fixture has no number at " << key;
      continue;
    }
    const double scale = std::max(std::abs(v->as_number()), 1e-300);
    EXPECT_LE(std::abs(computed - v->as_number()) / scale, kRelTol)
        << name << "." << key << ": pinned " << v->as_number()
        << ", computed " << computed;
  }
  std::set<std::string> pinned_keys;
  for (const auto& [key, value] : pinned->fields()) pinned_keys.insert(key);
  EXPECT_EQ(pinned_keys, computed_keys) << name;
}

}  // namespace

TEST(Golden, Table2SupervthRoadmap) { expect_fixture("table2_supervth"); }

TEST(Golden, Table3SubvthRoadmap) { expect_fixture("table3_subvth"); }

TEST(Golden, Fig02SsAndIonIoff) { expect_fixture("fig02_ss_ionioff"); }

TEST(Golden, Fig09LpolyAndSs) { expect_fixture("fig09_lpoly_ss"); }

TEST(Golden, NanowireIdVgAndSwing) { expect_fixture("nanowire_idvg"); }

TEST(Golden, CircuitFigures) { expect_fixture("circuits_paper"); }
