// Workload `tcad_xval`: one op is one cold TCAD device validation — a
// fresh device solved to equilibrium without any cache, then a 10-point
// I_d-V_g sweep — over the 90 and 65 nm designs of both strategies. This
// is the MEDICI-substitute cold path; nearly all of it is tcad/linalg.
// The 45/32 nm nodes are left out: their equilibrium does not converge
// with the default solver options yet.

#include <cmath>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "cards/technology_card.h"
#include "compact/device_model.h"
#include "core/scaling_study.h"
#include "tcad/device_sim.h"
#include "tcad/extract.h"

namespace bench {

namespace {

using namespace subscale;

constexpr double kVd = 0.25;  // bench_tcad_validation's sweep
constexpr double kVgStart = 0.0;
constexpr double kVgStop = 0.45;
constexpr std::size_t kPoints = 10;

struct Device {
  std::string name;
  compact::DeviceSpec spec;
};

/// The four validated devices, designed serially on the paper card.
std::vector<Device> design_devices() {
  core::StudyOptions options;
  options.card = cards::paper_bulk_lstp();
  options.run.exec.threads = 1;
  options.run.no_cache = true;
  const core::ScalingStudy study(compact::paper_calibration(), options);
  std::vector<Device> devices;
  for (std::size_t node = 0; node < 2; ++node) {
    devices.push_back({"super-" + study.node(node).name,
                       study.super_devices()[node].spec});
  }
  for (std::size_t node = 0; node < 2; ++node) {
    devices.push_back({"sub-" + study.node(node).name,
                       study.sub_devices()[node].device.spec});
  }
  return devices;
}

/// bench_tcad_validation's acceptance criteria on the 90 nm super-V_th
/// device: S_S within 20 % of the compact model, a clean exponential
/// (R^2 > 0.995) over more than 3 decades.
void check_validation(const Device& device, const tcad::SweepResult& sweep,
                      Outcome& out) {
  const tcad::SweepExtraction ex = tcad::extract_from_sweep(sweep);
  const double ss_compact =
      compact::make_device_model(device.spec)->subthreshold_swing();
  const double ss_err = std::abs(ex.ss / ss_compact - 1.0);
  const double decades =
      std::log10(sweep.points.back().id / sweep.points.front().id);
  if (!(ss_err < 0.20 && decades > 3.0 && ex.ss_r2 > 0.995)) {
    out.fail_check("validation: " + device.name + " S_S error " +
                   std::to_string(ss_err * 100.0) + "%, " +
                   std::to_string(decades) + " decades, R^2 " +
                   std::to_string(ex.ss_r2));
  }
}

}  // namespace

Outcome run_tcad_xval(const Config& config) {
  Outcome out;
  EndToEnd e2e(HostProbe::Cpus::kOwn);  // serial: one thread does the work
  Tracer tracer(config.trace);

  std::vector<Device> devices;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    devices = design_devices();
    e2e.setup_s.push_back(ms_since(t0) * 1e-3);
  };
  set_up();

  exec::RunContext ctx;
  ctx.exec.threads = 1;
  ctx.no_cache = true;

  std::vector<std::vector<double>> first_ids(devices.size());
  std::size_t traced_ops = 0;
  const std::size_t min_units = config.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units || ms_since(start) < config.seconds * 1e3; ++unit) {
    const bool traced = tracer.traced_unit(unit);
    e2e.probe.sample();
    // Seed-determined device order within the rep.
    std::vector<std::size_t> order = {0, 1, 2, 3};
    shuffle(order, config.seed, unit);
    tracer.begin_unit(traced);
    const auto unit_t0 = Clock::now();
    for (const std::size_t d : order) {
      const Device& device = devices[d];
      ++out.attempted;
      try {
        std::optional<tcad::TcadDevice> dev;
        {
          const Tracer::Scope s = tracer.scope("bench.tcad.equilibrium");
          dev.emplace(device.spec, tcad::MeshOptions{}, tcad::GummelOptions{},
                      ctx);
        }
        tcad::SweepResult sweep;
        {
          const Tracer::Scope s = tracer.scope("bench.tcad.id_vg");
          sweep = dev->id_vg(kVd, kVgStart, kVgStop, kPoints);
        }
        if (!sweep.all_converged() || sweep.points.size() != kPoints) {
          ++out.failed;
          out.fail_check(device.name + ": " +
                         std::to_string(sweep.report.failures.size()) +
                         " sweep points did not converge");
          continue;
        }
        if (traced) {
          for (const tcad::SweepPointRecord& point : sweep.timings) {
            tracer.record("tcad.point", point.wall_ms);
          }
        }
        std::vector<double> ids;
        for (const tcad::IdVgPoint& p : sweep.points) ids.push_back(p.id);
        if (first_ids[d].empty()) {
          first_ids[d] = ids;
          if (d == 0) check_validation(device, sweep, out);
        } else if (std::memcmp(first_ids[d].data(), ids.data(),
                               ids.size() * sizeof(double)) != 0) {
          out.fail_check(device.name + ": rep " + std::to_string(unit) +
                         " currents differ bitwise from the first rep");
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.fail_check(device.name + " threw: " + e.what());
      }
    }
    const double unit_ms = ms_since(unit_t0);
    tracer.end_unit();
    tracer.note_unit(traced, static_cast<double>(order.size()), unit_ms);
    if (traced) {
      traced_ops += order.size();
    } else {
      e2e.add_unit(static_cast<double>(order.size()), unit_ms);
      set_up();
    }
  }

  if (!config.trace) {
    e2e.emit(out);
    return out;
  }
  const std::vector<double> points = tracer.samples("tcad.point");
  out.metrics["tcad.equilibrium_ms_p50"] =
      percentile(tracer.samples("bench.tcad.equilibrium"), 50.0);
  out.metrics["tcad.sweep_ms_p50"] =
      percentile(tracer.samples("bench.tcad.id_vg"), 50.0);
  out.metrics["tcad.point_ms_p50"] = percentile(points, 50.0);
  out.metrics["tcad.point_ms_p95"] = percentile(points, 95.0);
  tracer.finish(static_cast<double>(traced_ops), config, "tcad_xval",
                {"cache.", "serve."}, out);
  return out;
}

}  // namespace bench
