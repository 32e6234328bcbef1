#pragma once

/// \file tcad_keys.h
/// Canonical cache-key derivation for the TCAD stack: a stable
/// serialization of DeviceSpec + MeshOptions + GummelOptions (and the
/// bias/sweep coordinates layered on top) into a cache::HashKey.
///
/// Header-only on purpose: the cache library stays free of tcad/compact
/// link dependencies (it is a leaf like obs), while the key schema for
/// device solves still lives in src/cache next to the hasher whose
/// canonicalization rules it relies on.
///
/// Schema rules (see also DESIGN.md §12.2):
///   * every field is tagged by name, so adding or reordering fields can
///     never silently alias two different physical problems;
///   * only physics-bearing fields participate. GummelOptions::fault is
///     deliberately excluded — call sites bypass the cache entirely
///     while fault injection is armed, because replaying a cached result
///     would mask the recovery paths the faults exist to exercise;
///   * bump kTcadKeySchema whenever the hashed field set changes, or
///     anything unhashed that moves converged answers does: a solver
///     constant (the fixed Gummel/Poisson/continuity/well constants), a
///     factorization, an assembly or a physics primitive the solve
///     calls — old records then simply stop being addressed.

#include "cache/hash.h"
#include "compact/device_spec.h"
#include "tcad/device_structure.h"
#include "tcad/gummel.h"

namespace subscale::cache {

/// Version of the hashed-field schema below (NOT the on-disk format
/// version, which SolveCache owns).
/// v2: DeviceSpec grew a backend kind and nanowire radius (a cached
/// bulk solve must never be addressable from a nanowire query).
/// v3: GummelOptions grew the cold-path accelerators and state
/// payloads a provenance trailer; although every accelerator converges
/// to the same physics within tolerance, cached states are bitwise
/// replays and the bitwise result is accelerator-dependent.
/// v4: the coupled-Newton strategy and the density stop were removed;
/// mesh-continuation levels are the one accelerator hashed, and the
/// payload trailer records them alone.
/// v5: TensorMesh2d numbers nodes along its shorter axis (y on every
/// paper device). State payloads are stored in node order, so a v4
/// record decoded under the new numbering would be a permuted field;
/// and the changed elimination order moves the converged values in the
/// last digits, so no v4 record is a bitwise replay any more.
/// v6: the Slotboom continuity assembly and its key field were removed,
/// and the 45/32 nm meshes put their silicon surface row at y = 0
/// (it had rounded to just above it), so those devices now converge to
/// states no v5 record could hold.
/// v7: the solver and retrograde-well settings that only ever took one
/// value became constants and left the hashed field set; the states
/// they converge to are bitwise those of v6.
/// v8: Poisson's Newton system is factored by a symmetric LDLᵀ instead
/// of the pivoting LU, which moves converged values in the last digits,
/// so no v7 record is a bitwise replay any more.
/// v9: continuity moves its ohmic-contact columns to the right-hand side
/// and is factored by an unpivoted LU, and its edge coefficients take
/// closed-form Caughey–Thomas mobilities and one expm1 per Bernoulli
/// pair; each moves converged values in the last digits.
/// v10: Poisson's Newton reuses its factored Jacobian within a Gummel
/// solve while the state stays within 1e-4 V of where it was assembled
/// (a chord step), which moves converged values in the last digits.
/// Sweep records drop each point's wall time with the same bump, so a
/// v9 sweep record is never decoded under the shorter layout.
/// v11: a bias point is (V_g, V_d) with source and bulk grounded. State
/// keys hash the two, state records drop their contact-bias map (the
/// key is the bias point) and bias-index entries are (vg, vd); the
/// states themselves are bitwise those of v10.
inline constexpr std::uint64_t kTcadKeySchema = 11;

inline void hash_append(KeyHasher& h, const doping::MosfetGeometry& g) {
  h.tag("geom")
      .f64(g.lpoly)
      .f64(g.tox)
      .f64(g.lov)
      .f64(g.xj)
      .f64(g.lsd)
      .f64(g.substrate_depth)
      .f64(g.halo_depth)
      .f64(g.halo_sigma_x)
      .f64(g.halo_sigma_y)
      .f64(g.sd_straggle_x)
      .f64(g.sd_straggle_y)
      .f64(g.feature_shrink);
}

inline void hash_append(KeyHasher& h, const doping::MosfetDopingLevels& l) {
  h.tag("levels").f64(l.nsub).f64(l.np_halo).f64(l.nsd);
}

inline void hash_append(KeyHasher& h, const compact::DeviceSpec& spec) {
  h.tag("spec")
      .u64(spec.polarity == doping::Polarity::kNfet ? 0 : 1)
      .u64(static_cast<std::uint64_t>(spec.backend))
      .f64(spec.vdd)
      .f64(spec.temperature)
      .f64(spec.nw_radius)
      .f64(spec.width);
  hash_append(h, spec.geometry);
  hash_append(h, spec.levels);
}

inline void hash_append(KeyHasher& h, const tcad::MeshOptions& m) {
  h.tag("mesh")
      .f64(m.surface_spacing)
      .f64(m.junction_spacing)
      .f64(m.grading_ratio)
      .u64(m.oxide_layers);
}

inline void hash_append(KeyHasher& h, const tcad::GummelOptions& o) {
  h.tag("gummel")
      .u64(o.max_iterations)
      .f64(o.psi_tolerance)
      .f64(o.bias_step);
  h.tag("poisson").f64(o.poisson.update_tolerance);
  h.tag("meshcont").u64(o.mesh_continuation_levels);
  // GummelOptions::fault intentionally absent — see the file comment.
}

/// The identity of one discretized solver problem: everything that
/// determines a solve's result except the bias point.
inline HashKey device_solve_key(const compact::DeviceSpec& spec,
                                const tcad::MeshOptions& mesh,
                                const tcad::GummelOptions& gummel) {
  KeyHasher h;
  h.tag("subscale.tcad.device").u64(kTcadKeySchema);
  hash_append(h, spec);
  hash_append(h, mesh);
  hash_append(h, gummel);
  return h.key();
}

/// One id_vg sweep on that device.
inline HashKey sweep_key(const HashKey& device_key, double vd,
                         double vg_start, double vg_stop,
                         std::size_t points) {
  KeyHasher h(device_key);
  h.tag("sweep").f64(vd).f64(vg_start).f64(vg_stop).u64(points);
  return h.key();
}

/// Solver state (psi, n, p) at one solved bias point on that device.
inline HashKey state_key(const HashKey& device_key,
                         const tcad::BiasPoint& bias) {
  KeyHasher h(device_key);
  h.tag("state").f64(bias.vg).f64(bias.vd);
  return h.key();
}

/// The per-device directory of cached bias states (warm-start lookup).
inline HashKey bias_index_key(const HashKey& device_key) {
  KeyHasher h(device_key);
  h.tag("bias_index");
  return h.key();
}

}  // namespace subscale::cache
