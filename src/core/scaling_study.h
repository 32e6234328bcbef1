#pragma once

/// \file scaling_study.h
/// The top-level facade of the library: runs both of the paper's scaling
/// strategies across the 90/65/45/32nm nodes once, caches the designed
/// devices, and hands out circuit-level views (inverters) for the
/// figure-reproduction experiments. Every bench builds on this class.

#include <mutex>
#include <string>
#include <vector>

#include "cards/technology_card.h"
#include "circuits/inverter.h"
#include "compact/calibration.h"
#include "exec/run_context.h"
#include "scaling/subvth_strategy.h"
#include "scaling/supervth_strategy.h"
#include "tcad/device_sim.h"

namespace subscale::core {

/// The paper's sub-V_th test supply (Figs. 4/5/10/11) [V].
inline constexpr double kVddSubthreshold = 0.25;

struct StudyOptions {
  /// The technology deck: node list, device backend, temperature, and
  /// the sub-V_th leakage anchor. The default reproduces the paper's
  /// deck bitwise (it IS scaling::paper_nodes()). Both strategies design
  /// with the card's env, and the sub-V_th one at its leakage anchor.
  cards::TechnologyCard card = cards::paper_bulk_lstp();
  /// Study-wide execution/telemetry context. Its exec policy drives both
  /// strategies' design fan-out (0 threads defers to SUBSCALE_THREADS,
  /// then the hardware; see ExecPolicy::resolved_threads()). The designs
  /// are pure compact-model arithmetic and never touch a solve cache,
  /// so `cache` and `no_cache` change nothing here.
  exec::RunContext run{};
};

/// Which of the paper's two scaling strategies to pull devices from.
enum class Strategy { kSuperVth, kSubVth };

/// Canonical lowercase strategy names ("supervth"/"subvth") — the one
/// spelling shared by the orch manifest JSON and the serve wire schema.
const char* strategy_name(Strategy strategy);
/// Parse a strategy name; false (out untouched) on an unknown one.
bool parse_strategy(const std::string& name, Strategy& out);

struct TcadValidationOptions {
  Strategy strategy = Strategy::kSuperVth;
  std::vector<std::size_t> nodes;  ///< node indices to run (empty = all)
  double vd = 0.25;                ///< drain bias of the gate sweep [V]
  double vg_start = 0.0;
  double vg_stop = 0.45;
  std::size_t points = 10;
  tcad::MeshOptions mesh;
  tcad::GummelOptions gummel;
  /// Execution and telemetry for the node fan-out. run.exec drives the
  /// per-node task fan-out; run.metrics/run.profiler flow into every
  /// device and sweep. Results are bitwise-identical at every thread
  /// count; {threads = 1} is the exact serial path.
  exec::RunContext run{};
};

/// Outcome of validating one designed node against the TCAD backend.
/// `error` is non-empty when the device could not even reach a solved
/// equilibrium (the whole node is then skipped, not the study).
struct TcadNodeValidation {
  std::size_t node = 0;     ///< index into the card's node list
  double lpoly_nm = 0.0;    ///< the designed gate length
  std::string error;        ///< construction/equilibrium failure, if any
  std::vector<tcad::IdVgPoint> sweep;
  tcad::SweepReport report;  ///< per-point failures within the sweep
  /// Per-point effort/wall-time records (diagnostic; see SweepResult).
  std::vector<tcad::SweepPointRecord> timings;
  bool usable() const { return error.empty() && sweep.size() >= 2; }
};

class ScalingStudy {
 public:
  explicit ScalingStudy(
      const compact::Calibration& calib = compact::paper_calibration(),
      const StudyOptions& options = {});

  const compact::Calibration& calibration() const { return calib_; }

  std::size_t node_count() const { return nodes_.size(); }
  const scaling::NodeInput& node(std::size_t i) const { return nodes_.at(i); }
  const std::vector<scaling::NodeInput>& nodes() const { return nodes_; }

  /// Designed devices (lazily computed once; safe to call from many
  /// threads — initialization is guarded by std::call_once).
  const std::vector<scaling::DesignedDevice>& super_devices() const;
  const std::vector<scaling::SubVthDevice>& sub_devices() const;

  /// Balanced inverters on the designed devices. `vdd` overrides the
  /// operating rail (pass node(i).vdd for nominal, or kVddSubthreshold
  /// for the paper's 250 mV points).
  circuits::InverterDevices super_inverter(std::size_t i, double vdd) const;
  circuits::InverterDevices sub_inverter(std::size_t i, double vdd) const;

  /// Cross-validate designed devices against the 2-D TCAD backend with
  /// graceful degradation: a node whose device fails to build or whose
  /// sweep loses points is reported (with structured diagnostics) and
  /// the remaining nodes still run.
  std::vector<TcadNodeValidation> tcad_validation(
      const TcadValidationOptions& options = {}) const;

 private:
  compact::Calibration calib_;
  std::vector<scaling::NodeInput> nodes_;  ///< card's resolved node list
  scaling::SuperVthOptions super_options_;
  scaling::SubVthOptions sub_options_;
  mutable std::once_flag super_once_;
  mutable std::once_flag sub_once_;
  mutable std::vector<scaling::DesignedDevice> super_;
  mutable std::vector<scaling::SubVthDevice> sub_;
};

}  // namespace subscale::core
