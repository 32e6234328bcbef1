#include "tcad/device_sim.h"

#include <algorithm>
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

// ---- payload codecs ---------------------------------------------------
// All doubles travel as raw bit patterns (cache::ByteWriter), so replay
// is bitwise-exact. Decoders return false on any structural mismatch;
// the caller treats that as a miss and recomputes. A sweep record holds
// no wall time, so the same key always publishes the same bytes. A state
// record holds no bias point: its key is the bias point.

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

std::vector<std::uint8_t> encode_state(const State& state,
                                       std::uint64_t meshcont_levels) {
  cache::ByteWriter w;
  w.f64_vector(state.psi);
  w.f64_vector(state.n);
  w.f64_vector(state.p);
  // Provenance trailer: the mesh-continuation levels of the solver
  // that produced this state. The key already discriminates configs;
  // the stamp makes a record auditable on its own, and its absence
  // makes any pre-stamp record fail decode_state's exhausted() check
  // (a clean miss, never a misread).
  w.u64(meshcont_levels);
  return w.take();
}

bool decode_state(const std::vector<std::uint8_t>& bytes, State& state,
                  std::uint64_t& meshcont_levels) {
  cache::ByteReader r(bytes);
  if (!r.f64_vector(state.psi) || !r.f64_vector(state.n) ||
      !r.f64_vector(state.p)) {
    return false;
  }
  if (!r.u64(meshcont_levels)) return false;
  return r.exhausted();
}

/// The warm-start index: every solved bias point (solver frame) of one
/// device that has a state record.
std::vector<std::uint8_t> encode_bias_index(
    const std::vector<BiasPoint>& points) {
  cache::ByteWriter w;
  w.u64(points.size());
  for (const BiasPoint& b : points) {
    w.f64(b.vg);
    w.f64(b.vd);
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
    if (!r.f64(b.vg) || !r.f64(b.vd)) return false;
  }
  return r.exhausted();
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
      count_meshcont_fallback();
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
    const BiasPoint equilibrium;
    if (restore_cached_state(equilibrium)) return;
    cold_equilibrium();
    const obs::ScopedSpan span(run_.span_sink(),
                               obs::names::spans::kCachePublish);
    cache_->store(cache::state_key(device_key_, equilibrium),
                  cache::PayloadKind::kState,
                  encode_state(solver_.state(),
                               gummel_options_.mesh_continuation_levels));
    return;
  }
  cold_equilibrium();
}

void TcadDevice::count_meshcont_fallback() const {
  if (obs::MetricsRegistry* sink = run_.sink(); sink != nullptr) {
    sink->counter(obs::names::kMeshContFallbacks).add(1);
  }
}

void TcadDevice::cold_equilibrium() {
  State guess;
  const bool seeded =
      meshcont_ != nullptr && meshcont_->equilibrium_guess(dev_, guess);
  const SolverReport& report =
      solver_.solve_equilibrium(seeded ? &guess : nullptr);
  // A seed the neutral-guess ladder had to replace fell back.
  if (seeded && !report.seed_used) count_meshcont_fallback();
}

const SolverReport& TcadDevice::solve_point(const BiasPoint& target) {
  State guess;
  bool seeded = false;
  if (meshcont_ != nullptr) {
    const BiasPoint& cur = solver_.bias();
    const double gap = std::max(std::abs(target.vg - cur.vg),
                                std::abs(target.vd - cur.vd));
    // A gap the fine ramp covers in one or two steps is cheaper solved
    // directly than via the coarse cascade.
    seeded = gap > 2.0 * gummel_options_.bias_step &&
             meshcont_->bias_guess(target, dev_, guess);
  }
  const SolverReport& report =
      solver_.try_solve_bias(target, seeded ? &guess : nullptr);
  if (seeded && !report.seed_used) count_meshcont_fallback();
  return report;
}

bool TcadDevice::restore_cached_state(const BiasPoint& at) {
  const obs::ScopedSpan span(run_.span_sink(),
                             obs::names::spans::kCacheLookup);
  const std::shared_ptr<const cache::Payload> payload = cache_->lookup(
      cache::state_key(device_key_, at), cache::PayloadKind::kState);
  if (payload == nullptr) return false;
  State state;
  std::uint64_t stamp = 0;
  if (!decode_state(payload->bytes, state, stamp)) return false;
  return solver_.adopt_state(at, std::move(state));
}

void TcadDevice::publish_state() {
  const BiasPoint at = solver_.bias();
  const obs::ScopedSpan span(run_.span_sink(),
                             obs::names::spans::kCachePublish);
  cache_->store(cache::state_key(device_key_, at), cache::PayloadKind::kState,
                encode_state(solver_.state(),
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
  if (std::find(index.begin(), index.end(), at) != index.end()) {
    return;  // already indexed
  }
  index.push_back(at);
  cache_->store(index_key, cache::PayloadKind::kBiasIndex,
                encode_bias_index(index));
}

void TcadDevice::warm_start_toward(const BiasPoint& target) {
  const std::shared_ptr<const cache::Payload> payload = cache_->lookup(
      cache::bias_index_key(device_key_), cache::PayloadKind::kBiasIndex);
  if (payload == nullptr) return;
  std::vector<BiasPoint> index;
  if (!decode_bias_index(payload->bytes, index) || index.empty()) return;

  const auto d2_of = [&target](const BiasPoint& b) {
    const double dg = b.vg - target.vg;
    const double dd = b.vd - target.vd;
    return dg * dg + dd * dd;
  };
  const BiasPoint* best = nullptr;
  double best_d2 = 0.0;
  for (const BiasPoint& b : index) {
    const double d2 = d2_of(b);
    if (best == nullptr || d2 < best_d2) {
      best = &b;
      best_d2 = d2;
    }
  }
  // Only adopt a state strictly nearer to the first sweep target than
  // where the solver already sits (normally: at equilibrium).
  if (best == nullptr || best_d2 >= d2_of(solver_.bias())) return;
  if (restore_cached_state(*best)) cache_->note_warmstart();
}

double TcadDevice::id_at(double vg, double vd) {
  const SolverReport& report = solve_point({sign_ * vg, sign_ * vd});
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
      warm_start_toward({sign_ * vg_start, sign_ * vd});
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
    const SolverReport& report = solve_point({sign_ * vg, sign_ * vd});
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
