#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/protocol.h"

namespace subscale::serve {

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::connect_unix(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    error_ = "connect(" + socket_path + "): " + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool Client::connect_tcp(const std::string& host, int port) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error_ = "not an IPv4 address: " + host;
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    error_ = "connect(" + host + ":" + std::to_string(port) +
             "): " + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool Client::send_query(const Query& query) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  return write_frame(fd_, query_to_json(query), &error_);
}

bool Client::recv_result(Result& result) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  const ReadStatus status = read_frame(fd_, last_response_, &error_);
  if (status != ReadStatus::kOk) return false;
  std::string parse_error;
  if (!parse_result(last_response_, result, &parse_error)) {
    error_ = "unparseable response: " + parse_error;
    return false;
  }
  return true;
}

bool Client::roundtrip(const Query& query, Result& result) {
  return send_query(query) && recv_result(result);
}

}  // namespace subscale::serve
