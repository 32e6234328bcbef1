#pragma once

/// \file study_keys.h
/// Cache-key derivation for the ANALYTICAL study layer: the compact-model
/// objective that scaling::design_subvth_device minimizes. Header-only
/// for the same reason as tcad_keys.h — the cache library stays a leaf;
/// the schema lives next to the hasher.
///
/// Same schema rules as tcad_keys.h: tagged fields, physics-bearing
/// inputs only (ExecPolicy / cache pointers are excluded — thread count
/// and caching cannot change a result), and kStudyKeySchema is bumped
/// whenever the hashed field set OR the analytical model it feeds
/// changes meaning.

#include "cache/tcad_keys.h"
#include "compact/calibration.h"
#include "scaling/subvth_strategy.h"
#include "scaling/technology.h"

namespace subscale::cache {

/// v2: SubVthOptions carries a DeviceEnv (backend kind, temperature,
/// nanowire radius) — two cards differing only in environment must
/// never share a design-objective memo.
/// v3: the circuit engine's analytic Jacobian (DESIGN.md §19) moves the
/// chain energies find_vmin memoizes in the 11th digit.
/// v4: the I_off drain bias and the L_poly search span are constants of
/// the strategy (subvth_strategy.cpp), so SubVthOptions no longer
/// carries them; find_vmin no longer memoizes.
inline constexpr std::uint64_t kStudyKeySchema = 4;

inline void hash_append(KeyHasher& h, const compact::Calibration& c) {
  h.tag("calib")
      .f64(c.c_dep)
      .f64(c.c_sce)
      .f64(c.c_len)
      .f64(c.k_halo)
      .f64(c.k_io)
      .f64(c.k_dibl)
      .f64(c.delta_vth)
      .f64(c.k_vsat)
      .f64(c.j_crit)
      .f64(c.c_fringe)
      .f64(c.c_wire);
}

inline void hash_append(KeyHasher& h, const scaling::NodeInput& n) {
  h.tag("node")
      .str(n.name)
      .i64(n.generation)
      .f64(n.lpoly_nm)
      .f64(n.tox_nm)
      .f64(n.vdd)
      .f64(n.feature_shrink)
      .f64(n.ileak_max_pa_um);
}

inline void hash_append(KeyHasher& h, const compact::DeviceEnv& env) {
  h.tag("env")
      .u64(static_cast<std::uint64_t>(env.backend))
      .f64(env.temperature)
      .f64(env.nw_radius_nm);
}

inline void hash_append(KeyHasher& h, const scaling::SubVthOptions& o) {
  // exec (and the cache pointer itself) intentionally absent: results
  // are thread-count independent by construction.
  h.tag("subvth_options")
      .f64(o.ioff_pa_um)
      .u64(o.lpoly_scan_points)
      .u64(o.split_iterations);
  hash_append(h, o.env);
}

/// Domain key of design_subvth_device's L_poly objective: every input
/// the energy factor at a candidate length depends on.
inline HashKey subvth_design_key(const scaling::NodeInput& node,
                                 const scaling::SubVthOptions& options,
                                 const compact::Calibration& calib) {
  KeyHasher h;
  h.tag("subscale.scaling.subvth_design").u64(kStudyKeySchema);
  hash_append(h, node);
  hash_append(h, options);
  hash_append(h, calib);
  return h.key();
}

}  // namespace subscale::cache
