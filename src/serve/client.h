#pragma once

/// \file client.h
/// Minimal blocking client for the design-query wire: connect to a
/// daemon (Unix socket or TCP loopback), send framed queries, read
/// framed results. Used by the `subscale_query` CLI's remote mode, the
/// serve tests and the load-generator bench — production clients in
/// other languages only need the framing rules from serve/protocol.h
/// and the JSON schema from serve/query.h.

#include <string>

#include "serve/query.h"

namespace subscale::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect; false (with the reason in error()) on failure.
  bool connect_unix(const std::string& socket_path);
  bool connect_tcp(const std::string& host, int port);

  void close();

  /// Send one query frame. False on I/O failure (reason in error()).
  bool send_query(const Query& query);
  /// Block for the next result frame. False on I/O failure / close /
  /// an unparseable response (reason in error()).
  bool recv_result(Result& result);
  /// send_query + recv_result.
  bool roundtrip(const Query& query, Result& result);

  /// The raw JSON text of the last response frame (byte-exact — this is
  /// what the bitwise restart-identity checks compare).
  const std::string& last_response_text() const { return last_response_; }
  const std::string& error() const { return error_; }

 private:
  int fd_ = -1;
  std::string last_response_;
  std::string error_;
};

}  // namespace subscale::serve
