#pragma once

/// \file server.h
/// The long-lived design-query daemon: a listener thread multiplexing
/// framed-JSON connections (Unix socket or TCP loopback) over poll(),
/// a bounded admission gate (serve/admission.h), and the existing
/// exec::TaskPool doing the actual solves through one shared
/// serve::Dispatcher.
///
/// Threading model:
///   * the listener thread owns accept(), every read(), and the
///     connection table. It parses frames, runs admission, and writes
///     rejection responses inline (those are cheap);
///   * admitted requests become TaskPool tasks: dispatch -> record
///     latency -> write the response frame under the connection's
///     write mutex (workers and the listener interleave responses on
///     one socket safely; each frame is written atomically under the
///     lock);
///   * stop() wakes the listener via a self-pipe, joins it, then drains
///     the pool so every admitted request still gets its response
///     before the sockets close — a graceful stop never drops admitted
///     work.
///
/// A connection is the unit of client identity for fairness: each
/// accepted socket gets a stable "c<N>" id fed to the admission
/// controller, so one flooding connection throttles itself while
/// others keep landing in the queue.
///
/// Malformed input never kills the daemon: an unparseable frame gets a
/// structured bad_request response on the same connection; an oversize
/// length prefix (unrecoverable — the byte stream has no sync marker)
/// closes that one connection only.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_pool.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"

namespace subscale::serve {

struct ServerOptions {
  /// Exactly one transport: a Unix socket path, or a TCP port on
  /// 127.0.0.1 (`port = 0` binds an ephemeral port, read it back with
  /// Server::port()). Setting both (or neither) fails validate().
  std::string socket_path;
  int port = -1;
  /// Worker threads solving admitted requests.
  std::size_t workers = 2;
  AdmissionOptions admission{};
  DispatcherOptions dispatcher{};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  /// Calls stop() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn the listener thread and the worker pool.
  /// Throws std::runtime_error on socket errors (path in use, ...).
  void start();

  /// Graceful stop: close the listening socket, finish every admitted
  /// request and write its response, then tear down connections.
  /// Idempotent.
  void stop();

  /// The bound TCP port (resolved when options.port == 0); -1 for Unix.
  int port() const { return bound_port_; }
  const std::string& socket_path() const { return options_.socket_path; }

  Dispatcher& dispatcher() { return *dispatcher_; }
  AdmissionController& admission() { return *admission_; }

 private:
  struct Connection;
  struct Instruments;

  void listener_loop();
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& frame);
  void send_result(const std::shared_ptr<Connection>& conn,
                   const Result& result);

  ServerOptions options_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<exec::TaskPool> pool_;
  std::unique_ptr<Instruments> instruments_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int bound_port_ = -1;
  std::thread listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Connection table: touched only by the listener thread.
  std::vector<std::shared_ptr<Connection>> connections_;
  std::uint64_t next_client_ = 0;
};

}  // namespace subscale::serve
