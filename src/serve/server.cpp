#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "obs/names.h"
#include "serve/protocol.h"

namespace subscale::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("serve::Server: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking_listener(int fd) {
  // Only the LISTENING socket is non-blocking (so accept() can drain
  // until EAGAIN). Connection fds stay blocking: poll() gates every
  // read, and response writes from workers must not short-write.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

void ServerOptions::validate() const {
  const bool unix_transport = !socket_path.empty();
  const bool tcp_transport = port >= 0;
  if (unix_transport == tcp_transport) {
    throw std::invalid_argument(
        "ServerOptions: set exactly one of socket_path / port");
  }
  if (port > 65535) {
    throw std::invalid_argument("ServerOptions: port must be <= 65535");
  }
  if (workers == 0) {
    throw std::invalid_argument("ServerOptions: workers must be >= 1");
  }
  admission.validate();
  dispatcher.validate();
}

/// Per-connection state. Owned by shared_ptr: the listener holds one
/// reference in the connection table, every in-flight task another, so
/// the fd outlives whichever finishes last (the destructor closes it —
/// there is no fd-reuse race between a closing connection and a worker
/// still writing its response).
struct Server::Connection {
  int fd = -1;
  std::string client;  ///< stable fairness identity, "c<N>"
  bool counted = false;  ///< bumped serve.clients (first counted request)
  FrameDecoder decoder;
  std::mutex write_mu;        ///< one frame at a time on the wire
  std::atomic<bool> dead{false};  ///< read side gone; stop writing

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// Instrument pointers resolved once at start() (all null when the
/// dispatcher's RunContext has no metrics sink).
struct Server::Instruments {
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* throttled = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* clients = nullptr;
  obs::Gauge* queue_depth_max = nullptr;
  obs::Histogram* request_ms = nullptr;

  explicit Instruments(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    requests = &reg->counter(obs::names::kServeRequests);
    errors = &reg->counter(obs::names::kServeErrors);
    throttled = &reg->counter(obs::names::kServeThrottled);
    rejected = &reg->counter(obs::names::kServeRejected);
    clients = &reg->counter(obs::names::kServeClients);
    queue_depth_max = &reg->gauge(obs::names::kServeQueueDepthMax);
    request_ms =
        &reg->histogram(obs::names::kServeRequestMs, obs::buckets::kLatencyMs);
  }
};

Server::Server(const ServerOptions& options) : options_(options) {
  options_.validate();
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);

  // Admission first: the dispatcher's kMetrics export observes the
  // controller through DispatcherOptions::admission, so it must exist
  // before the Dispatcher copies its options.
  admission_ = std::make_unique<AdmissionController>(options_.admission);
  options_.dispatcher.admission = admission_.get();
  dispatcher_ = std::make_unique<Dispatcher>(options_.dispatcher);
  instruments_ =
      std::make_unique<Instruments>(options_.dispatcher.run.sink());
  pool_ = std::make_unique<exec::TaskPool>(options_.workers,
                                           options_.dispatcher.run.sink());

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("serve::Server: socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket(AF_UNIX)");
    // A stale path from a killed daemon would fail bind(); removing it
    // is safe because the chaos contract says restart-in-place.
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      sys_fail("bind(" + options_.socket_path + ")");
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      sys_fail("bind(127.0.0.1:" + std::to_string(options_.port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) < 0) {
      sys_fail("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 64) < 0) sys_fail("listen");
  set_nonblocking_listener(listen_fd_);
  if (::pipe(wake_pipe_) < 0) sys_fail("pipe");

  running_.store(true, std::memory_order_release);
  listener_ = std::thread([this] { listener_loop(); });
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  const char byte = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  listener_.join();
  // Drain admitted work so every accepted request still gets its
  // response frame before the sockets close.
  pool_->wait_idle();
  pool_.reset();
  connections_.clear();  // destructors close the fds
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

void Server::listener_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> fd_conns;  // parallel to fds[2..]
  char buf[64 * 1024];

  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_conns.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      fds.push_back({conn->fd, POLLIN, 0});
      fd_conns.push_back(conn);
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/250);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable for this loop
    }
    if (fds[0].revents != 0) break;  // self-pipe: stop() called

    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;  // EAGAIN: drained
        auto conn = std::make_shared<Connection>();
        conn->fd = cfd;
        char label[32];
        std::snprintf(label, sizeof(label), "c%llu",
                      static_cast<unsigned long long>(next_client_++));
        conn->client = label;
        connections_.push_back(std::move(conn));
      }
    }

    for (std::size_t i = 0; i < fd_conns.size(); ++i) {
      const pollfd& p = fds[i + 2];
      const auto& conn = fd_conns[i];
      if (p.revents == 0) continue;
      bool drop = (p.revents & (POLLERR | POLLNVAL)) != 0;
      if (!drop && (p.revents & (POLLIN | POLLHUP)) != 0) {
        // Blocking fd, but poll() said readable: one recv won't block.
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          drop = true;  // orderly close or error
        } else {
          conn->decoder.feed(buf, static_cast<std::size_t>(n));
          std::string frame;
          while (conn->decoder.next(frame)) handle_frame(conn, frame);
          if (conn->decoder.oversize()) drop = true;  // unrecoverable
        }
      }
      if (drop) {
        conn->dead.store(true, std::memory_order_release);
        connections_.erase(
            std::remove(connections_.begin(), connections_.end(), conn),
            connections_.end());
      }
    }
  }
}

void Server::send_result(const std::shared_ptr<Connection>& conn,
                         const Result& result) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  const std::string payload = result_to_json(result);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!write_frame(conn->fd, payload)) {
    // Peer went away between dispatch and reply; reads will notice too.
    conn->dead.store(true, std::memory_order_release);
  }
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const std::string& frame) {
  Query query;
  Error parse_error;
  const bool parsed = parse_query(frame, query, parse_error);
  // A kMetrics probe is answered before any instrumentation: a
  // telemetry probe is an observation, not work. It skips the requests
  // counter, admission and the latency histogram (so reading the
  // metrics never perturbs them), and it answers inline on the listener
  // thread — a saturated worker pool must not make the health endpoint
  // unreachable.
  if (parsed && query.kind == QueryKind::kMetrics) {
    send_result(conn, dispatcher_->dispatch(query));
    return;
  }

  // serve.clients counts connections that issued at least one counted
  // request — deferred from accept so a probe-only connection (the
  // one-shot CLI asking for metrics) leaves the snapshot untouched.
  if (!conn->counted) {
    conn->counted = true;
    if (instruments_->clients != nullptr) instruments_->clients->add();
  }
  if (instruments_->requests != nullptr) instruments_->requests->add();

  if (!parsed) {
    if (instruments_->errors != nullptr) instruments_->errors->add();
    send_result(conn, error_result(query, parse_error.code,
                                   parse_error.message, parse_error.detail));
    return;
  }

  const Admission verdict = admission_->on_arrival(conn->client);
  if (verdict == Admission::kThrottled) {
    if (instruments_->throttled != nullptr) instruments_->throttled->add();
    send_result(conn,
                error_result(query, codes::kThrottled,
                             "client has too many requests in flight",
                             "client " + conn->client));
    return;
  }
  if (verdict == Admission::kOverloaded) {
    if (instruments_->rejected != nullptr) instruments_->rejected->add();
    send_result(conn, error_result(query, codes::kOverloaded,
                                   "server is saturated; retry later"));
    return;
  }

  if (instruments_->queue_depth_max != nullptr) {
    instruments_->queue_depth_max->set_max(
        static_cast<double>(admission_->inflight()));
  }
  const auto admitted_at = std::chrono::steady_clock::now();
  pool_->submit([this, conn, query, admitted_at] {
    const Result result = dispatcher_->dispatch(query);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - admitted_at)
            .count();
    admission_->on_complete(conn->client);
    if (instruments_->request_ms != nullptr) {
      instruments_->request_ms->record(latency_ms);
    }
    if (!result.ok && instruments_->errors != nullptr) {
      instruments_->errors->add();
    }
    send_result(conn, result);
  });
}

}  // namespace subscale::serve
