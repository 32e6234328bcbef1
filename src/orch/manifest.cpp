#include "orch/manifest.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "cache/lease.h"
#include "cache/tcad_keys.h"
#include "cards/technology_card.h"
#include "io/json_parse.h"
#include "io/writer.h"
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

// ---- JSON -------------------------------------------------------------------

namespace {

void write_mesh(io::JsonWriter& w, const tcad::MeshOptions& m) {
  w.begin_object();
  w.key("surface_spacing");
  w.value(m.surface_spacing);
  w.key("junction_spacing");
  w.value(m.junction_spacing);
  w.key("grading_ratio");
  w.value(m.grading_ratio);
  w.key("oxide_layers");
  w.value(static_cast<std::uint64_t>(m.oxide_layers));
  w.end_object();
}

void write_gummel(io::JsonWriter& w, const tcad::GummelOptions& g) {
  w.begin_object();
  w.key("max_iterations");
  w.value(static_cast<std::uint64_t>(g.max_iterations));
  w.key("psi_tolerance");
  w.value(g.psi_tolerance);
  w.key("bias_step");
  w.value(g.bias_step);
  w.key("mesh_continuation_levels");
  w.value(static_cast<std::uint64_t>(g.mesh_continuation_levels));
  w.key("poisson");
  w.begin_object();
  w.key("update_tolerance");
  w.value(g.poisson.update_tolerance);
  w.end_object();
  w.end_object();
}

void read_mesh(const io::JsonValue& v, tcad::MeshOptions& m) {
  m.surface_spacing = v.number_at("surface_spacing", m.surface_spacing);
  m.junction_spacing = v.number_at("junction_spacing", m.junction_spacing);
  m.grading_ratio = v.number_at("grading_ratio", m.grading_ratio);
  m.oxide_layers = static_cast<std::size_t>(v.number_at(
      "oxide_layers", static_cast<double>(m.oxide_layers)));
}

void read_gummel(const io::JsonValue& v, tcad::GummelOptions& g) {
  g.max_iterations = static_cast<std::size_t>(v.number_at(
      "max_iterations", static_cast<double>(g.max_iterations)));
  g.psi_tolerance = v.number_at("psi_tolerance", g.psi_tolerance);
  g.bias_step = v.number_at("bias_step", g.bias_step);
  g.mesh_continuation_levels = static_cast<std::size_t>(
      v.number_at("mesh_continuation_levels",
                  static_cast<double>(g.mesh_continuation_levels)));
  if (const io::JsonPtr p = v.get("poisson"); p != nullptr) {
    g.poisson.update_tolerance =
        p->number_at("update_tolerance", g.poisson.update_tolerance);
  }
}

/// Parse 32 lowercase hex chars back into a HashKey; false on anything
/// else (a mangled key must fail the load, not address a wrong record).
bool parse_hex_key(const std::string& hex, cache::HashKey& out) {
  if (hex.size() != 32) return false;
  std::uint64_t halves[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(half * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else return false;
      halves[half] = (halves[half] << 4) | nibble;
    }
  }
  out.hi = halves[0];
  out.lo = halves[1];
  return true;
}

}  // namespace

std::string manifest_to_json(const Manifest& manifest) {
  io::JsonWriter w;
  w.begin_object();
  w.key("manifest_version");
  w.value(static_cast<std::uint64_t>(manifest.version));
  w.key("spec");
  w.begin_object();
  w.key("card");
  w.value(manifest.spec.card);
  w.key("strategies");
  w.begin_array();
  for (const core::Strategy s : manifest.spec.strategies) {
    w.value(core::strategy_name(s));
  }
  w.end_array();
  w.key("nodes");
  w.begin_array();
  for (const std::size_t n : manifest.spec.nodes) {
    w.value(static_cast<std::uint64_t>(n));
  }
  w.end_array();
  w.key("vds");
  w.begin_array();
  for (const double vd : manifest.spec.vds) w.value(vd);
  w.end_array();
  w.key("vg_start");
  w.value(manifest.spec.vg_start);
  w.key("vg_stop");
  w.value(manifest.spec.vg_stop);
  w.key("points");
  w.value(static_cast<std::uint64_t>(manifest.spec.points));
  w.key("mesh");
  write_mesh(w, manifest.spec.mesh);
  w.key("gummel");
  write_gummel(w, manifest.spec.gummel);
  w.end_object();
  w.key("units");
  w.begin_array();
  for (const WorkUnit& unit : manifest.units) {
    w.begin_object();
    w.key("index");
    w.value(static_cast<std::uint64_t>(unit.index));
    w.key("strategy");
    w.value(core::strategy_name(unit.strategy));
    w.key("node");
    w.value(static_cast<std::uint64_t>(unit.node));
    w.key("vd");
    w.value(unit.vd);
    w.key("result_key");
    w.value(unit.result_key.hex());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool save_manifest(const std::string& path, const Manifest& manifest) {
  const std::string text = manifest_to_json(manifest);
  return cache::atomic_write_file(path, text.data(), text.size());
}

bool load_manifest(const std::string& path, Manifest& out,
                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "manifest: " + path + ": " + why;
    return false;
  };
  std::string parse_error;
  const io::JsonPtr doc = io::json_parse_file(path, &parse_error);
  if (doc == nullptr) return fail(parse_error);
  const double version = doc->number_at("manifest_version", 0.0);
  if (version != static_cast<double>(kManifestVersion)) {
    return fail("unsupported manifest_version");
  }
  out = Manifest{};

  const io::JsonPtr spec = doc->get("spec");
  if (spec == nullptr) return fail("missing spec");
  out.spec.card = spec->string_at("card");
  if (out.spec.card.empty()) return fail("spec.card missing or empty");
  out.spec.strategies.clear();
  if (const io::JsonPtr arr = spec->get("strategies"); arr != nullptr) {
    for (const io::JsonPtr& item : arr->items()) {
      core::Strategy s;
      if (item == nullptr || !core::parse_strategy(item->as_string(), s)) {
        return fail("bad strategy name");
      }
      out.spec.strategies.push_back(s);
    }
  }
  if (out.spec.strategies.empty()) return fail("spec.strategies empty");
  out.spec.nodes.clear();
  if (const io::JsonPtr arr = spec->get("nodes"); arr != nullptr) {
    for (const io::JsonPtr& item : arr->items()) {
      out.spec.nodes.push_back(
          static_cast<std::size_t>(item->as_number(0.0)));
    }
  }
  out.spec.vds.clear();
  if (const io::JsonPtr arr = spec->get("vds"); arr != nullptr) {
    for (const io::JsonPtr& item : arr->items()) {
      out.spec.vds.push_back(item->as_number(0.0));
    }
  }
  if (out.spec.vds.empty()) return fail("spec.vds empty");
  out.spec.vg_start = spec->number_at("vg_start", 0.0);
  out.spec.vg_stop = spec->number_at("vg_stop", 0.45);
  out.spec.points =
      static_cast<std::size_t>(spec->number_at("points", 10.0));
  if (const io::JsonPtr m = spec->get("mesh"); m != nullptr) {
    read_mesh(*m, out.spec.mesh);
  }
  if (const io::JsonPtr g = spec->get("gummel"); g != nullptr) {
    read_gummel(*g, out.spec.gummel);
  }

  const io::JsonPtr units = doc->get("units");
  if (units == nullptr || units->kind() != io::JsonValue::Kind::kArray) {
    return fail("missing units array");
  }
  for (const io::JsonPtr& item : units->items()) {
    if (item == nullptr) return fail("bad unit entry");
    WorkUnit unit;
    unit.index = static_cast<std::size_t>(item->number_at("index", 0.0));
    if (!core::parse_strategy(item->string_at("strategy"), unit.strategy)) {
      return fail("bad unit strategy");
    }
    unit.node = static_cast<std::size_t>(item->number_at("node", 0.0));
    unit.vd = item->number_at("vd", 0.0);
    if (!parse_hex_key(item->string_at("result_key"), unit.result_key)) {
      return fail("bad unit result_key");
    }
    out.units.push_back(unit);
  }
  try {
    out.spec.validate();
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return true;
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
