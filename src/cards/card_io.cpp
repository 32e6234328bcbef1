#include "cards/card_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/json_parse.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace subscale::cards {

namespace {

/// Strict readers over the total JsonValue accessors: a missing key or
/// a wrong-kinded value names the offending field instead of silently
/// defaulting.
[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("card_from_json: " + what);
}

const io::JsonValue& require_object(const io::JsonPtr& v,
                                    const std::string& where) {
  if (v == nullptr || v->kind() != io::JsonValue::Kind::kObject) {
    fail(where + " must be an object");
  }
  return *v;
}

std::string require_string(const io::JsonValue& obj, const std::string& key,
                           const std::string& where) {
  const io::JsonPtr v = obj.get(key);
  if (v == nullptr || v->kind() != io::JsonValue::Kind::kString) {
    fail(where + "." + key + " must be a string");
  }
  return v->as_string();
}

double require_number(const io::JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const io::JsonPtr v = obj.get(key);
  if (v == nullptr || v->kind() != io::JsonValue::Kind::kNumber) {
    fail(where + "." + key + " must be a number");
  }
  return v->as_number();
}

void write_node(io::JsonWriter& w, const scaling::NodeInput& node) {
  w.begin_object();
  w.key("name");
  w.value(node.name);
  w.key("generation");
  w.value(static_cast<std::uint64_t>(node.generation));
  w.key("lpoly_nm");
  w.value(node.lpoly_nm);
  w.key("tox_nm");
  w.value(node.tox_nm);
  w.key("vdd");
  w.value(node.vdd);
  w.key("feature_shrink");
  w.value(node.feature_shrink);
  w.key("ileak_max_pa_um");
  w.value(node.ileak_max_pa_um);
  w.end_object();
}

scaling::NodeInput read_node(const io::JsonPtr& v, const std::string& where) {
  const io::JsonValue& obj = require_object(v, where);
  scaling::NodeInput node;
  node.name = require_string(obj, "name", where);
  node.generation = static_cast<int>(require_number(obj, "generation", where));
  node.lpoly_nm = require_number(obj, "lpoly_nm", where);
  node.tox_nm = require_number(obj, "tox_nm", where);
  node.vdd = require_number(obj, "vdd", where);
  node.feature_shrink = require_number(obj, "feature_shrink", where);
  node.ileak_max_pa_um = require_number(obj, "ileak_max_pa_um", where);
  return node;
}

void write_recipe(io::JsonWriter& w, const ScalingRecipe& r) {
  w.begin_object();
  w.key("first_generation");
  w.value(static_cast<std::uint64_t>(r.first_generation));
  w.key("node_count");
  w.value(static_cast<std::uint64_t>(r.node_count));
  w.key("lpoly0_nm");
  w.value(r.lpoly0_nm);
  w.key("lpoly_shrink");
  w.value(r.lpoly_shrink);
  w.key("tox0_nm");
  w.value(r.tox0_nm);
  w.key("tox_shrink");
  w.value(r.tox_shrink);
  w.key("vdd0");
  w.value(r.vdd0);
  w.key("vdd_step");
  w.value(r.vdd_step);
  w.key("vdd_floor");
  w.value(r.vdd_floor);
  w.key("ileak0_pa_um");
  w.value(r.ileak0_pa_um);
  w.key("ileak_growth");
  w.value(r.ileak_growth);
  w.end_object();
}

ScalingRecipe read_recipe(const io::JsonPtr& v, const std::string& where) {
  const io::JsonValue& obj = require_object(v, where);
  ScalingRecipe r;
  r.first_generation =
      static_cast<int>(require_number(obj, "first_generation", where));
  r.node_count = static_cast<int>(require_number(obj, "node_count", where));
  r.lpoly0_nm = require_number(obj, "lpoly0_nm", where);
  r.lpoly_shrink = require_number(obj, "lpoly_shrink", where);
  r.tox0_nm = require_number(obj, "tox0_nm", where);
  r.tox_shrink = require_number(obj, "tox_shrink", where);
  r.vdd0 = require_number(obj, "vdd0", where);
  r.vdd_step = require_number(obj, "vdd_step", where);
  r.vdd_floor = require_number(obj, "vdd_floor", where);
  r.ileak0_pa_um = require_number(obj, "ileak0_pa_um", where);
  r.ileak_growth = require_number(obj, "ileak_growth", where);
  return r;
}

}  // namespace

void write_card(io::JsonWriter& w, const TechnologyCard& card) {
  w.begin_object();
  w.key("schema");
  w.value(kCardSchemaTag);
  w.key("id");
  w.value(card.id);
  w.key("description");
  w.value(card.description);
  w.key("env");
  w.begin_object();
  w.key("backend");
  w.value(compact::backend_kind_name(card.env.backend));
  w.key("temperature");
  w.value(card.env.temperature);
  w.key("nw_radius_nm");
  w.value(card.env.nw_radius_nm);
  w.end_object();
  w.key("subvth_ioff_pa_um");
  w.value(card.subvth_ioff_pa_um);
  w.key("use_recipe");
  w.value(card.use_recipe);
  if (card.use_recipe) {
    w.key("recipe");
    write_recipe(w, card.recipe);
  } else {
    w.key("nodes");
    w.begin_array();
    for (const scaling::NodeInput& node : card.nodes) {
      write_node(w, node);
    }
    w.end_array();
  }
  w.end_object();
}

std::string card_to_json(const TechnologyCard& card) {
  io::JsonWriter w;
  write_card(w, card);
  return w.str();
}

TechnologyCard card_from_json(const std::string& text) {
  if (obs::MetricsRegistry* reg = obs::default_registry(); reg != nullptr) {
    reg->counter(obs::names::kCardsLoads).add(1);
  }
  std::string error;
  const io::JsonPtr root = io::json_parse(text, &error);
  if (root == nullptr) {
    fail("malformed JSON: " + error);  // error carries the byte offset
  }
  const io::JsonValue& obj = require_object(root, "card");
  const std::string schema = require_string(obj, "schema", "card");
  if (schema != kCardSchemaTag) {
    fail("unsupported schema '" + schema + "' (expected " +
         std::string(kCardSchemaTag) + ")");
  }
  TechnologyCard card;
  card.id = require_string(obj, "id", "card");
  card.description = obj.string_at("description");

  const io::JsonValue& env = require_object(obj.get("env"), "card.env");
  const std::string backend = require_string(env, "backend", "card.env");
  if (!compact::parse_backend_kind(backend, card.env.backend)) {
    fail("card.env.backend: unknown backend '" + backend + "'");
  }
  card.env.temperature = require_number(env, "temperature", "card.env");
  card.env.nw_radius_nm = require_number(env, "nw_radius_nm", "card.env");

  card.subvth_ioff_pa_um =
      require_number(obj, "subvth_ioff_pa_um", "card");

  const io::JsonPtr use_recipe = obj.get("use_recipe");
  if (use_recipe == nullptr ||
      use_recipe->kind() != io::JsonValue::Kind::kBool) {
    fail("card.use_recipe must be a bool");
  }
  card.use_recipe = use_recipe->as_bool();
  if (card.use_recipe) {
    card.recipe = read_recipe(obj.get("recipe"), "card.recipe");
  } else {
    const io::JsonPtr nodes = obj.get("nodes");
    if (nodes == nullptr || nodes->kind() != io::JsonValue::Kind::kArray) {
      fail("card.nodes must be an array");
    }
    for (std::size_t i = 0; i < nodes->size(); ++i) {
      card.nodes.push_back(read_node(
          nodes->at(i), "card.nodes[" + std::to_string(i) + "]"));
    }
  }
  card.validate();  // duplicate names, positivity, env sanity
  return card;
}

TechnologyCard load_card(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("load_card: cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return card_from_json(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()) + " (in '" + path +
                                "')");
  }
}

void save_card(const TechnologyCard& card, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::invalid_argument("save_card: cannot write '" + path + "'");
  }
  out << card_to_json(card) << "\n";
  if (!out) {
    throw std::runtime_error("save_card: write to '" + path + "' failed");
  }
}

}  // namespace subscale::cards
