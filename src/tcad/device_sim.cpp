#include "tcad/device_sim.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "cache/bytes.h"
#include "cache/solve_cache.h"
#include "cache/tcad_keys.h"
#include "obs/names.h"
#include "obs/timer.h"

namespace subscale::tcad {

namespace {

/// One warm-start index entry: a solved bias point (solver frame).
struct BiasPoint {
  double vg = 0.0;
  double vd = 0.0;
  double vs = 0.0;
  double vb = 0.0;
};

// ---- payload codecs ---------------------------------------------------
// All doubles travel as raw bit patterns (cache::ByteWriter), so replay
// is bitwise-exact. Decoders return false on any structural mismatch;
// the caller treats that as a miss and recomputes. A sweep record holds
// no wall time, so the same key always publishes the same bytes.

std::vector<std::uint8_t> encode_sweep(const SweepResult& r) {
  cache::ByteWriter w;
  w.u64(r.points.size());
  for (const IdVgPoint& p : r.points) {
    w.f64(p.vg);
    w.f64(p.id);
  }
  w.u64(r.timings.size());
  for (const SweepPointRecord& t : r.timings) {
    w.f64(t.vg);
    w.u64(t.gummel_iterations);
    w.u64(t.retries);
    w.u64(t.converged ? 1 : 0);
  }
  w.u64(r.report.attempted);
  return w.take();
}

bool decode_sweep(const std::vector<std::uint8_t>& bytes, SweepResult& out) {
  cache::ByteReader r(bytes);
  std::uint64_t n = 0;
  if (!r.u64(n) || n > bytes.size()) return false;
  out.points.resize(static_cast<std::size_t>(n));
  for (IdVgPoint& p : out.points) {
    if (!r.f64(p.vg) || !r.f64(p.id)) return false;
  }
  if (!r.u64(n) || n > bytes.size()) return false;
  out.timings.resize(static_cast<std::size_t>(n));
  for (SweepPointRecord& t : out.timings) {
    std::uint64_t iters = 0;
    std::uint64_t retries = 0;
    std::uint64_t converged = 0;
    if (!r.f64(t.vg) || !r.u64(iters) || !r.u64(retries) ||
        !r.u64(converged)) {
      return false;
    }
    t.gummel_iterations = static_cast<std::size_t>(iters);
    t.retries = static_cast<std::size_t>(retries);
    t.converged = converged != 0;
  }
  std::uint64_t attempted = 0;
  if (!r.u64(attempted)) return false;
  out.report.attempted = static_cast<std::size_t>(attempted);
  return r.exhausted();
}

std::vector<std::uint8_t> encode_state(
    const std::map<std::string, double>& biases,
    const std::vector<double>& psi, const std::vector<double>& n,
    const std::vector<double>& p, std::uint64_t meshcont_levels) {
  cache::ByteWriter w;
  w.u64(biases.size());
  for (const auto& [name, v] : biases) {
    w.str(name);
    w.f64(v);
  }
  w.f64_vector(psi);
  w.f64_vector(n);
  w.f64_vector(p);
  // Provenance trailer: the mesh-continuation levels of the solver
  // that produced this state. The key already discriminates configs;
  // the stamp makes a record auditable on its own, and its absence
  // makes any pre-stamp record fail decode_state's exhausted() check
  // (a clean miss, never a misread).
  w.u64(meshcont_levels);
  return w.take();
}

bool decode_state(const std::vector<std::uint8_t>& bytes,
                  std::map<std::string, double>& biases,
                  std::vector<double>& psi, std::vector<double>& n,
                  std::vector<double>& p, std::uint64_t& meshcont_levels) {
  cache::ByteReader r(bytes);
  std::uint64_t n_contacts = 0;
  if (!r.u64(n_contacts) || n_contacts > 16) return false;
  for (std::uint64_t i = 0; i < n_contacts; ++i) {
    std::string name;
    double v = 0.0;
    if (!r.str(name) || !r.f64(v)) return false;
    biases[name] = v;
  }
  if (!r.f64_vector(psi) || !r.f64_vector(n) || !r.f64_vector(p)) {
    return false;
  }
  if (!r.u64(meshcont_levels)) return false;
  return r.exhausted();
}

std::vector<std::uint8_t> encode_bias_index(
    const std::vector<BiasPoint>& points) {
  cache::ByteWriter w;
  w.u64(points.size());
  for (const BiasPoint& b : points) {
    w.f64(b.vg);
    w.f64(b.vd);
    w.f64(b.vs);
    w.f64(b.vb);
  }
  return w.take();
}

bool decode_bias_index(const std::vector<std::uint8_t>& bytes,
                       std::vector<BiasPoint>& out) {
  cache::ByteReader r(bytes);
  std::uint64_t n = 0;
  if (!r.u64(n) || n > bytes.size()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (BiasPoint& b : out) {
    if (!r.f64(b.vg) || !r.f64(b.vd) || !r.f64(b.vs) || !r.f64(b.vb)) {
      return false;
    }
  }
  return r.exhausted();
}

double bias_of(const std::map<std::string, double>& biases,
               const char* contact) {
  const auto it = biases.find(contact);
  return it != biases.end() ? it->second : 0.0;
}

}  // namespace

TcadDevice::TcadDevice(const compact::DeviceSpec& spec,
                       const MeshOptions& mesh_options,
                       const GummelOptions& gummel_options,
                       const exec::RunContext& ctx)
    : dev_(make_device_structure(spec, mesh_options)),
      run_(ctx),
      gummel_options_(gummel_options),
      solver_(dev_, gummel_options, ctx) {
  run_.validate();
  sign_ = (spec.polarity == doping::Polarity::kNfet) ? 1.0 : -1.0;
  if (gummel_options.mesh_continuation_levels > 0) {
    try {
      meshcont_ = std::make_unique<MeshContinuation>(spec, mesh_options,
                                                     gummel_options, ctx);
    } catch (const std::exception&) {
      // A spec whose coarse replica cannot even be meshed just loses
      // the accelerator (counted), never the solve.
      if (obs::MetricsRegistry* sink = run_.sink(); sink != nullptr) {
        sink->counter(obs::names::kMeshContFallbacks).add(1);
      }
    }
  }
  // Fault injection exercises the recovery paths; replaying cached
  // results (or publishing fault-shaped ones) would defeat it.
  if (gummel_options.fault.stage == SolveStage::kNone) {
    cache_ = run_.cache_sink();
  }
  if (cache_ != nullptr) {
    device_key_ =
        cache::device_solve_key(spec, mesh_options, gummel_options);
    const cache::HashKey eq_key =
        cache::state_key(device_key_, 0.0, 0.0, 0.0, 0.0);
    if (restore_cached_state(eq_key)) return;
    cold_equilibrium();
    const obs::ScopedSpan span(run_.span_sink(),
                               obs::names::spans::kCachePublish);
    cache_->store(eq_key, cache::PayloadKind::kState,
                  encode_state(solver_.biases(), solver_.psi(),
                               solver_.electron_density(),
                               solver_.hole_density(),
                               gummel_options_.mesh_continuation_levels));
    return;
  }
  cold_equilibrium();
}

void TcadDevice::cold_equilibrium() {
  if (meshcont_ != nullptr) {
    std::vector<double> psi;
    std::vector<double> n;
    std::vector<double> p;
    if (meshcont_->equilibrium_guess(dev_, psi, n, p)) {
      if (!solver_.solve_equilibrium_with_guess(psi, n, p)) {
        // Converged anyway (via the neutral-guess ladder) — the seed
        // just didn't help; record that it fell back.
        if (obs::MetricsRegistry* sink = run_.sink(); sink != nullptr) {
          sink->counter(obs::names::kMeshContFallbacks).add(1);
        }
      }
      return;
    }
  }
  solver_.solve_equilibrium();
}

const SolverReport& TcadDevice::solve_point(double svg, double svd) {
  if (meshcont_ != nullptr) {
    const std::map<std::string, double>& cur = solver_.biases();
    const double gap = std::max(std::abs(svg - bias_of(cur, "gate")),
                                std::abs(svd - bias_of(cur, "drain")));
    // A gap the fine ramp covers in one or two steps is cheaper solved
    // directly than via the coarse cascade.
    if (gap > 2.0 * gummel_options_.bias_step) {
      std::vector<double> psi;
      std::vector<double> n;
      std::vector<double> p;
      if (meshcont_->bias_guess(svg, svd, 0.0, 0.0, dev_, psi, n, p)) {
        const SolverReport& report =
            solver_.try_solve_bias_seeded(svg, svd, 0.0, 0.0, psi, n, p);
        if (!report.seed_used) {
          if (obs::MetricsRegistry* sink = run_.sink(); sink != nullptr) {
            sink->counter(obs::names::kMeshContFallbacks).add(1);
          }
        }
        return report;
      }
    }
  }
  return solver_.try_solve_bias(svg, svd, 0.0, 0.0);
}

bool TcadDevice::restore_cached_state(const cache::HashKey& key) {
  const obs::ScopedSpan span(run_.span_sink(),
                             obs::names::spans::kCacheLookup);
  const std::shared_ptr<const cache::Payload> payload =
      cache_->lookup(key, cache::PayloadKind::kState);
  if (payload == nullptr) return false;
  std::map<std::string, double> biases;
  std::vector<double> psi;
  std::vector<double> n;
  std::vector<double> p;
  std::uint64_t stamp = 0;
  if (!decode_state(payload->bytes, biases, psi, n, p, stamp)) return false;
  return solver_.adopt_state(biases, std::move(psi), std::move(n),
                             std::move(p));
}

void TcadDevice::publish_state() {
  const std::map<std::string, double>& biases = solver_.biases();
  const BiasPoint at{bias_of(biases, "gate"), bias_of(biases, "drain"),
                     bias_of(biases, "source"), bias_of(biases, "bulk")};
  const obs::ScopedSpan span(run_.span_sink(),
                             obs::names::spans::kCachePublish);
  cache_->store(
      cache::state_key(device_key_, at.vg, at.vd, at.vs, at.vb),
      cache::PayloadKind::kState,
      encode_state(biases, solver_.psi(), solver_.electron_density(),
                   solver_.hole_density(),
                   gummel_options_.mesh_continuation_levels));

  // Register the point in the per-device warm-start index
  // (read-modify-write; concurrent writers last-win, which at worst
  // forgets a warm-start candidate — never corrupts, thanks to the
  // atomic-rename publish).
  const cache::HashKey index_key = cache::bias_index_key(device_key_);
  std::vector<BiasPoint> index;
  if (const auto existing =
          cache_->lookup(index_key, cache::PayloadKind::kBiasIndex);
      existing != nullptr) {
    decode_bias_index(existing->bytes, index);
  }
  for (const BiasPoint& b : index) {
    if (b.vg == at.vg && b.vd == at.vd && b.vs == at.vs && b.vb == at.vb) {
      return;  // already indexed
    }
  }
  index.push_back(at);
  cache_->store(index_key, cache::PayloadKind::kBiasIndex,
                encode_bias_index(index));
}

void TcadDevice::warm_start_toward(double vg, double vd) {
  const std::shared_ptr<const cache::Payload> payload = cache_->lookup(
      cache::bias_index_key(device_key_), cache::PayloadKind::kBiasIndex);
  if (payload == nullptr) return;
  std::vector<BiasPoint> index;
  if (!decode_bias_index(payload->bytes, index) || index.empty()) return;

  const auto d2_of = [&](double bvg, double bvd, double bvs, double bvb) {
    const double dg = bvg - vg;
    const double dd = bvd - vd;
    return dg * dg + dd * dd + bvs * bvs + bvb * bvb;
  };
  const BiasPoint* best = nullptr;
  double best_d2 = 0.0;
  for (const BiasPoint& b : index) {
    const double d2 = d2_of(b.vg, b.vd, b.vs, b.vb);
    if (best == nullptr || d2 < best_d2) {
      best = &b;
      best_d2 = d2;
    }
  }
  // Only adopt a state strictly nearer to the first sweep target than
  // where the solver already sits (normally: at equilibrium).
  const std::map<std::string, double>& cur = solver_.biases();
  const double cur_d2 =
      d2_of(bias_of(cur, "gate"), bias_of(cur, "drain"),
            bias_of(cur, "source"), bias_of(cur, "bulk"));
  if (best == nullptr || best_d2 >= cur_d2) return;
  if (restore_cached_state(cache::state_key(device_key_, best->vg, best->vd,
                                            best->vs, best->vb))) {
    cache_->note_warmstart();
  }
}

double TcadDevice::id_at(double vg, double vd) {
  const SolverReport& report = solve_point(sign_ * vg, sign_ * vd);
  if (!report.converged) throw SolverError(report);
  return sign_ * solver_.terminal_current("drain");
}

SweepResult TcadDevice::id_vg(double vd, double vg_start, double vg_stop,
                              std::size_t points) {
  if (points < 2) {
    throw std::invalid_argument("id_vg: need at least 2 points");
  }
  obs::MetricsRegistry* sink = run_.sink();
  obs::SpanProfiler* prof = run_.span_sink();

  cache::HashKey sweep_key{};
  if (cache_ != nullptr) {
    sweep_key =
        cache::sweep_key(device_key_, vd, vg_start, vg_stop, points);
    const obs::ScopedSpan span(prof, obs::names::spans::kCacheLookup);
    if (const auto payload =
            cache_->lookup(sweep_key, cache::PayloadKind::kSweep);
        payload != nullptr) {
      SweepResult cached;
      // A decodable record replays bitwise; an undecodable one (should
      // be unreachable behind the format version) falls through to a
      // fresh solve that re-publishes it.
      if (decode_sweep(payload->bytes, cached)) return cached;
    }
    if (cache_->warm_start_enabled()) {
      warm_start_toward(sign_ * vg_start, sign_ * vd);
    }
  }

  SweepResult result;
  result.points.reserve(points);
  result.timings.reserve(points);
  for (std::size_t k = 0; k < points; ++k) {
    const double vg = vg_start + (vg_stop - vg_start) *
                                     static_cast<double>(k) /
                                     static_cast<double>(points - 1);
    ++result.report.attempted;
    if (sink != nullptr) {
      sink->counter(obs::names::kSweepPointsAttempted).add(1);
    }
    const obs::ScopedSpan point_span(prof, obs::names::spans::kSweepPoint);
    obs::ScopedTimer timer(sink, obs::names::kSweepPointMs);
    const SolverReport& report = solve_point(sign_ * vg, sign_ * vd);
    const double wall_ms = timer.stop();
    result.timings.push_back({vg, wall_ms, report.total_gummel_iterations,
                              report.retries, report.converged});
    if (report.converged) {
      if (sink != nullptr) {
        sink->counter(obs::names::kSweepPointsConverged).add(1);
      }
      result.points.push_back({vg, sign_ * solver_.terminal_current("drain")});
      continue;
    }
    if (sink != nullptr) {
      sink->counter(obs::names::kSweepPointsFailed).add(1);
    }
    // The solver rolled back to the last converged bias point, so the
    // next point continues its ramp from there; this one is skipped.
    result.report.failures.push_back({vg, vd, report});
  }

  // Publish only fully converged sweeps: a partial curve's shape depends
  // on which points failed, and failures deserve a fresh diagnosis on
  // every run, not a replay.
  if (cache_ != nullptr && result.report.failures.empty() &&
      !result.points.empty()) {
    {
      const obs::ScopedSpan span(prof, obs::names::spans::kCachePublish);
      cache_->store(sweep_key, cache::PayloadKind::kSweep,
                    encode_sweep(result));
    }
    publish_state();
  }
  return result;
}

}  // namespace subscale::tcad
