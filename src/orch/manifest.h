#pragma once

/// \file manifest.h
/// Study manifests: the shard plan of a multi-process study run. A
/// manifest names every work unit of a study's (strategy × node × V_d)
/// grid together with the content-addressed key its result publishes
/// under, so the orchestrator, its workers and a resumed run months
/// later agree on what the study is and what is already done.
///
/// Unit identity is *content*, not position: a unit's result key chains
/// from the existing cache key schemas (cache/tcad_keys.h
/// device_solve_key → sweep_key) plus the strategy/node provenance, so
/// two manifests that pose the same physical problem share results,
/// and any change to device, mesh, solver options or bias grid moves
/// every affected unit to a fresh key. Resume falls out: a rerun
/// rebuilds the manifest from the spec, looks up each unit's key, and
/// solves only the misses.
///
/// A manifest lives only in memory. The orchestrator builds it, and its
/// forked workers inherit it; nothing writes it to disk.

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "compact/calibration.h"
#include "core/scaling_study.h"
#include "tcad/device_structure.h"
#include "tcad/gummel.h"

namespace subscale::orch {

/// The `manifest_version` stamp of the merged study document
/// (unit_runner.h study_result_json). It stays 3, the last version of
/// the retired manifest file, so merged documents keep their bytes.
inline constexpr std::uint64_t kManifestVersion = 3;

/// Key-schema version folded into every unit result key (mirrors
/// cache::kTcadKeySchema's role: bump = old records stop being asked
/// for).
/// v2: the card id joins the provenance fields.
inline constexpr std::uint64_t kOrchKeySchema = 2;

/// The study grid a manifest shards: which devices, which sweeps.
/// Mesh/solver options ride along so every process solves the same
/// discretized problem. GummelOptions::fault must stay disarmed: unit
/// keys do not hash it, and process-level chaos replaces in-process
/// faults here.
struct StudySpec {
  /// Technology card id (builtin) or card-file path; resolved through
  /// cards::resolve_card when the study is built, and part of every
  /// unit's result key — the same grid on two decks never shares
  /// records.
  std::string card = "paper_bulk_lstp";
  std::vector<core::Strategy> strategies{core::Strategy::kSuperVth};
  std::vector<std::size_t> nodes;  ///< indices into the card's nodes; empty = all
  std::vector<double> vds{0.25};   ///< drain biases, one sweep per entry
  double vg_start = 0.0;
  double vg_stop = 0.45;
  std::size_t points = 10;
  tcad::MeshOptions mesh;
  tcad::GummelOptions gummel;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One shardable work unit: a full id_vg sweep of one designed node at
/// one drain bias.
struct WorkUnit {
  std::size_t index = 0;  ///< position in the manifest (display/lease id)
  core::Strategy strategy = core::Strategy::kSuperVth;
  std::size_t node = 0;   ///< index into the card's node list
  double vd = 0.25;
  cache::HashKey result_key{};  ///< where the UnitResult publishes
};

struct Manifest {
  StudySpec spec;
  std::vector<WorkUnit> units;
};

/// The content address a unit's result publishes under: chained from
/// the sweep key of the designed device (so it inherits every schema
/// rule of cache/tcad_keys.h) plus the strategy/node provenance that
/// the merged study output reports.
cache::HashKey unit_result_key(const compact::DeviceSpec& spec,
                               const tcad::MeshOptions& mesh,
                               const tcad::GummelOptions& gummel,
                               const std::string& card,
                               core::Strategy strategy, std::size_t node,
                               double vd, double vg_start, double vg_stop,
                               std::size_t points);

/// Study options matching the spec: the spec's card resolved through
/// cards::resolve_card (throws on an unknown id/path). Every process of
/// a run builds its study through this so they agree on the deck.
core::StudyOptions study_options_for(const StudySpec& spec);

/// Expand the spec's grid into units, designing the devices through
/// `study` to derive each result key.
/// The study must have been built on the spec's card (see
/// study_options_for). Node indices out of range throw
/// std::out_of_range.
Manifest build_manifest(const StudySpec& spec,
                        const core::ScalingStudy& study);

/// Convenience: build with a spec-matched study on the paper
/// calibration.
Manifest build_manifest(const StudySpec& spec);

// ---- study directory layout -------------------------------------------------
// The study directory holds the coordination state that is NOT content
// addressed: lease files (one per in-flight unit) and poison markers
// (units abandoned after the retry budget). Results never live here —
// they go through the solve cache.

std::string lease_path(const std::string& study_dir, std::size_t unit);
std::string poison_path(const std::string& study_dir, std::size_t unit);
bool unit_poisoned(const std::string& study_dir, std::size_t unit);
/// Write the poison marker (atomic; idempotent). `reason` is stored for
/// the post-mortem. Returns false on I/O failure.
bool poison_unit(const std::string& study_dir, std::size_t unit,
                 const std::string& reason);
/// The stored poison reason, or empty.
std::string poison_reason(const std::string& study_dir, std::size_t unit);

}  // namespace subscale::orch
