#pragma once

/// \file admission.h
/// Admission control for the design-query daemon: decide, per arriving
/// request, whether to run it now, bounce it back to its sender
/// (throttled — you specifically have too much in flight), or shed it
/// (overloaded — the daemon as a whole is saturated). Rejected work is
/// answered with a structured error frame, never silently dropped, so
/// clients can back off and retry.
///
/// Two always-on bounds compose, checked in this order:
///
///   1. Per-client fairness cap — a client may have at most
///      `per_client_inflight` requests outstanding. A flooding client
///      hits its own ceiling and gets kThrottled while a second client
///      still lands in the queue untouched. (This is the primary
///      starvation defence; it needs no history or tuning.)
///
///   2. Global capacity bound — total in-flight (queued + executing)
///      may not exceed `queue_capacity`; beyond it requests get
///      kOverloaded. This bounds daemon memory no matter how many
///      distinct clients pile on.
///
/// The controller is a pure decision kernel — no clocks, no threads, no
/// sockets. The server feeds it arrivals/completions; tests feed it
/// synthetic sequences and assert on verdicts deterministically.

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

namespace subscale::serve {

struct AdmissionOptions {
  /// Max total in-flight requests (queued + executing) before shedding.
  std::size_t queue_capacity = 64;
  /// Max in-flight per client id before throttling that client.
  std::size_t per_client_inflight = 8;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

enum class Admission {
  kAdmit,       ///< run it
  kThrottled,   ///< this client is over its fairness cap — retry later
  kOverloaded,  ///< the daemon is saturated — retry later
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options = {});

  /// Verdict for one arriving request from `client`. kAdmit also books
  /// the request in-flight; the caller MUST pair it with on_complete.
  Admission on_arrival(const std::string& client);

  /// Release one in-flight slot for `client`. Safe ordering:
  /// book-keeping is internal, call from any thread.
  void on_complete(const std::string& client);

  std::size_t inflight() const;
  std::size_t client_inflight(const std::string& client) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;

  mutable std::mutex mu_;
  std::size_t inflight_ = 0;
  std::map<std::string, std::size_t> per_client_;
};

}  // namespace subscale::serve
