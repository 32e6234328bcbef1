#pragma once

/// \file dispatcher.h
/// The one dispatch path from a serve::Query to a serve::Result, used
/// identically by the socket daemon (serve/server.h) and the one-shot
/// `subscale_query` CLI — transport never touches semantics, so the two
/// can never drift.
///
/// A Dispatcher owns a registry of ScalingStudy instances (one per
/// technology card it has been asked about; built lazily, thread-safe)
/// and routes each query through the normal library stack — study
/// design loops for kDesign/kFigure, TcadDevice::id_vg for kSweep —
/// under one full exec::RunContext, so the PR-5 solve cache, metrics
/// and profiler all flow in exactly as they do for batch studies.
///
/// Error stance: dispatch() NEVER throws. Every internal exception —
/// the TCAD factory rejecting a nanowire deck, a malformed card path,
/// a node index out of range, a device that cannot reach equilibrium —
/// maps to a structured {code, message, detail} error Result
/// (serve/query.h codes::*). A bad query must never take the daemon
/// down.
///
/// Coalescing: identical in-flight queries (same cache::query_key, see
/// cache/serve_keys.h) are solved exactly once. The first caller
/// computes; concurrent callers with the same key wait on the leader's
/// shared_future and receive a copy of the same Result (their own `id`
/// echoed back). Combined with the content-addressed solve cache this
/// gives three tiers: identical-and-in-flight -> one solve shared via
/// the future; identical-but-done -> bitwise replay from the cache;
/// fresh -> a real solve. `serve.coalesced` counts the followers,
/// `serve.executed` the leaders. A kMetrics query is neither: it reads
/// the live registry, so it bypasses the in-flight table and counts
/// nowhere.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/hash.h"
#include "core/scaling_study.h"
#include "exec/run_context.h"
#include "serve/admission.h"
#include "serve/query.h"

namespace subscale::serve {

struct DispatcherOptions {
  /// Execution/telemetry/cache context for every solve the dispatcher
  /// runs. metrics/cache resolve through the usual sinks (explicit >
  /// process default > off).
  exec::RunContext run{};
  /// Test hook: runs on the leader after its in-flight registration and
  /// before the actual solve — lets the coalescing tests hold the
  /// leader in place until every follower has arrived. Never set in
  /// production.
  std::function<void(const Query&)> compute_hook;
  /// The admission controller whose state a kMetrics query reports
  /// (the daemon wires its own in; null — the CLI's local mode — omits
  /// the admission block). Observed only, never consulted for
  /// admission decisions: the Dispatcher itself admits everything.
  const AdmissionController* admission = nullptr;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class Dispatcher {
 public:
  explicit Dispatcher(const DispatcherOptions& options = {});

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Answer one query. Never throws; failures come back as structured
  /// error Results. Safe to call from many threads concurrently.
  Result dispatch(const Query& query);

  /// Leaders (queries actually computed) and followers (queries served
  /// from a leader's in-flight future) so far — test observability;
  /// the same numbers land in serve.executed / serve.coalesced.
  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

 private:
  /// The study for a card id-or-path, built on first use. Throws
  /// std::invalid_argument on an unresolvable card.
  const core::ScalingStudy& study_for(const std::string& card);

  /// The uncoalesced compute path; classifies its own exceptions.
  Result compute(const Query& query);
  Result compute_sweep(const Query& query);
  Result compute_design(const Query& query);
  Result compute_figure(const Query& query);
  /// Non-perturbing by contract: snapshots the registry/admission/
  /// profiler without bumping serve.executed (or any other counter), so
  /// two back-to-back metrics queries against unchanged state render
  /// byte-identical documents.
  Result compute_metrics(const Query& query);

  DispatcherOptions options_;

  std::mutex studies_mu_;
  std::map<std::string, std::unique_ptr<core::ScalingStudy>> studies_;

  std::mutex inflight_mu_;
  std::unordered_map<cache::HashKey, std::shared_future<Result>,
                     cache::HashKeyHasher>
      inflight_;

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> coalesced_{0};

  // Instrument pointers resolved once at construction (null = off).
  obs::Counter* executed_ctr_ = nullptr;
  obs::Counter* coalesced_ctr_ = nullptr;
};

}  // namespace subscale::serve
