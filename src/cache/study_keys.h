#pragma once

/// \file study_keys.h
/// Cache-key derivation for the ANALYTICAL study layer: the compact-model
/// objectives that scaling::design_subvth_device and circuits::find_vmin
/// minimize. Header-only for the same reason as tcad_keys.h — the cache
/// library stays a leaf; the schema lives next to the hasher.
///
/// Same schema rules as tcad_keys.h: tagged fields, physics-bearing
/// inputs only (ExecPolicy / cache pointers are excluded — thread count
/// and caching cannot change a result), and kStudyKeySchema is bumped
/// whenever the hashed field set OR the analytical model it feeds
/// changes meaning.

#include "cache/tcad_keys.h"
#include "circuits/chain.h"
#include "circuits/vmin.h"
#include "compact/calibration.h"
#include "scaling/subvth_strategy.h"
#include "scaling/technology.h"

namespace subscale::cache {

/// v2: SubVthOptions carries a DeviceEnv (backend kind, temperature,
/// nanowire radius) — two cards differing only in environment must
/// never share a design-objective memo.
/// v3: the circuit engine's analytic Jacobian (DESIGN.md §19) moves the
/// chain energies find_vmin memoizes in the 11th digit.
inline constexpr std::uint64_t kStudyKeySchema = 3;

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
      .f64(o.vds_ref)
      .f64(o.lpoly_max_factor)
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

inline void hash_append(KeyHasher& h, const circuits::ChainSpec& spec) {
  h.tag("chain")
      .u64(spec.stages)
      .f64(spec.activity)
      .f64(spec.self_load_factor);
}

/// Domain key of find_vmin's chain-energy objective. The inverter pair
/// is identified by its NFET/PFET specs plus the calibration (a
/// CompactMosfet is a pure function of those); `vdd` is the search
/// variable, so it is NOT part of the domain.
inline HashKey vmin_key(const compact::DeviceSpec& nfet,
                        const compact::DeviceSpec& pfet,
                        const compact::Calibration& calib,
                        const circuits::ChainSpec& chain,
                        const circuits::VminOptions& options) {
  KeyHasher h;
  h.tag("subscale.circuits.vmin").u64(kStudyKeySchema);
  hash_append(h, nfet);
  hash_append(h, pfet);
  hash_append(h, calib);
  hash_append(h, chain);
  h.tag("vmin_options")
      .f64(options.v_lo)
      .f64(options.v_hi)
      .f64(options.v_tolerance)
      .u64(options.scan_points);
  return h.key();
}

}  // namespace subscale::cache
