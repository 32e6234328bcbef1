#include "orch/manifest.h"

#include <filesystem>
#include <stdexcept>

#include "cache/lease.h"
#include "cache/tcad_keys.h"
#include "cards/technology_card.h"
#include "scaling/technology.h"

namespace subscale::orch {

namespace fs = std::filesystem;

void StudySpec::validate() const {
  const auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("StudySpec: ") + msg);
  };
  if (card.empty()) fail("card must not be empty");
  if (strategies.empty()) fail("strategies must not be empty");
  if (vds.empty()) fail("vds must not be empty");
  if (points < 2) fail("points must be >= 2");
  if (!(vg_stop > vg_start)) fail("vg_stop must exceed vg_start");
  // Unit keys chain device_solve_key, which leaves the fault out, so a
  // faulted unit would publish under the clean spec's key.
  if (gummel.fault.stage != tcad::SolveStage::kNone) {
    fail("gummel.fault must not be armed (unit keys do not hash it)");
  }
  gummel.validate();
}

cache::HashKey unit_result_key(const compact::DeviceSpec& spec,
                               const tcad::MeshOptions& mesh,
                               const tcad::GummelOptions& gummel,
                               const std::string& card,
                               core::Strategy strategy, std::size_t node,
                               double vd, double vg_start, double vg_stop,
                               std::size_t points) {
  const cache::HashKey sweep = cache::sweep_key(
      cache::device_solve_key(spec, mesh, gummel), vd, vg_start, vg_stop,
      points);
  cache::KeyHasher h(sweep);
  h.tag("subscale.orch.unit")
      .u64(kOrchKeySchema)
      .str(card)
      .str(core::strategy_name(strategy))
      .u64(node);
  return h.key();
}

core::StudyOptions study_options_for(const StudySpec& spec) {
  core::StudyOptions options;
  options.card = cards::resolve_card(spec.card);
  return options;
}

Manifest build_manifest(const StudySpec& spec,
                        const core::ScalingStudy& study) {
  spec.validate();
  Manifest manifest;
  manifest.spec = spec;

  std::vector<std::size_t> nodes = spec.nodes;
  if (nodes.empty()) {
    for (std::size_t i = 0; i < study.node_count(); ++i) nodes.push_back(i);
  }
  for (const std::size_t node : nodes) {
    if (node >= study.node_count()) {
      throw std::out_of_range("build_manifest: bad node index");
    }
  }

  for (const core::Strategy strategy : spec.strategies) {
    for (const std::size_t node : nodes) {
      const compact::DeviceSpec& device =
          strategy == core::Strategy::kSubVth
              ? study.sub_devices()[node].device.spec
              : study.super_devices()[node].spec;
      for (const double vd : spec.vds) {
        WorkUnit unit;
        unit.index = manifest.units.size();
        unit.strategy = strategy;
        unit.node = node;
        unit.vd = vd;
        unit.result_key = unit_result_key(
            device, spec.mesh, spec.gummel, spec.card, strategy, node, vd,
            spec.vg_start, spec.vg_stop, spec.points);
        manifest.units.push_back(unit);
      }
    }
  }
  return manifest;
}

Manifest build_manifest(const StudySpec& spec) {
  const core::ScalingStudy study(compact::paper_calibration(),
                                 study_options_for(spec));
  return build_manifest(spec, study);
}

// ---- study directory layout -------------------------------------------------

std::string lease_path(const std::string& study_dir, std::size_t unit) {
  return study_dir + "/leases/unit-" + std::to_string(unit) + ".lease";
}

std::string poison_path(const std::string& study_dir, std::size_t unit) {
  return study_dir + "/poison/unit-" + std::to_string(unit);
}

bool unit_poisoned(const std::string& study_dir, std::size_t unit) {
  std::error_code ec;
  return fs::exists(poison_path(study_dir, unit), ec) && !ec;
}

bool poison_unit(const std::string& study_dir, std::size_t unit,
                 const std::string& reason) {
  return cache::atomic_write_file(poison_path(study_dir, unit),
                                  reason.data(), reason.size());
}

std::string poison_reason(const std::string& study_dir, std::size_t unit) {
  std::vector<std::uint8_t> bytes;
  if (!cache::read_file_bytes(poison_path(study_dir, unit), bytes)) {
    return {};
  }
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace subscale::orch
