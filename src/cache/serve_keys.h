#pragma once

/// \file serve_keys.h
/// Content-hash schema for design-space queries (src/serve). The serve
/// Dispatcher coalesces identical in-flight queries onto one solve by
/// addressing them with this key; like tcad_keys.h it lives next to the
/// hasher whose canonicalization rules it relies on, header-only, so
/// the cache library itself stays free of serve link dependencies.
///
/// Schema rules (same contract as tcad_keys.h):
///   * every field is tagged by name — reordering can never alias two
///     different queries;
///   * only problem-defining fields participate. Query::id is a client
///     correlation tag and is deliberately excluded: two clients asking
///     the same question must land on the same key (that is the whole
///     point of coalescing);
///   * bump kServeKeySchema whenever the hashed field set changes.

#include "cache/hash.h"
#include "serve/query.h"

namespace subscale::cache {

/// Version of the hashed-field schema below.
inline constexpr std::uint64_t kServeKeySchema = 1;

/// The identity of one design-space query: everything that determines
/// its Result except who asked (Query::id). kMetrics queries are never
/// coalesced (they observe live state), but hashing them is still
/// well-defined. The key lives only in the Dispatcher's in-flight
/// table, never on disk, so renumbering QueryKind needs no bump.
inline HashKey query_key(const serve::Query& q) {
  KeyHasher h;
  h.tag("subscale.serve.query").u64(kServeKeySchema);
  h.tag("kind").u64(static_cast<std::uint64_t>(q.kind));
  h.tag("card").str(q.card);
  h.tag("strategy").u64(q.strategy == core::Strategy::kSubVth ? 1 : 0);
  h.tag("node").u64(q.node);
  h.tag("sweep")
      .f64(q.vd)
      .f64(q.vg_start)
      .f64(q.vg_stop)
      .u64(q.points)
      .boolean(q.coarse_mesh);
  h.tag("figure").str(q.figure);
  return h.key();
}

}  // namespace subscale::cache
