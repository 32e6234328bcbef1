#include "serve/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace subscale::serve {

namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

std::string errno_string(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

/// Every frame travels over a socket, so writes go through send() with
/// MSG_NOSIGNAL: a vanished peer is an EPIPE return, never SIGPIPE.
bool write_all(int fd, const char* data, std::size_t size,
               std::string* error) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, errno_string("write"));
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// False on error or EOF; `eof` reports which.
bool read_all(int fd, char* data, std::size_t size, bool& eof,
              std::string* error) {
  eof = false;
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, data + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, errno_string("read"));
      return false;
    }
    if (n == 0) {
      eof = true;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void encode_frame_header(std::uint32_t payload_size,
                         unsigned char header[kFrameHeaderBytes]) {
  header[0] = static_cast<unsigned char>(payload_size >> 24);
  header[1] = static_cast<unsigned char>(payload_size >> 16);
  header[2] = static_cast<unsigned char>(payload_size >> 8);
  header[3] = static_cast<unsigned char>(payload_size);
}

std::uint32_t decode_frame_header(
    const unsigned char header[kFrameHeaderBytes]) {
  return (static_cast<std::uint32_t>(header[0]) << 24) |
         (static_cast<std::uint32_t>(header[1]) << 16) |
         (static_cast<std::uint32_t>(header[2]) << 8) |
         static_cast<std::uint32_t>(header[3]);
}

bool write_frame(int fd, std::string_view payload, std::string* error) {
  if (payload.size() > kMaxFrameBytes) {
    set_error(error, "frame payload exceeds kMaxFrameBytes (" +
                         std::to_string(payload.size()) + " bytes)");
    return false;
  }
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(static_cast<std::uint32_t>(payload.size()), header);
  if (!write_all(fd, reinterpret_cast<const char*>(header),
                 kFrameHeaderBytes, error)) {
    return false;
  }
  return write_all(fd, payload.data(), payload.size(), error);
}

ReadStatus read_frame(int fd, std::string& payload, std::string* error) {
  unsigned char header[kFrameHeaderBytes];
  bool eof = false;
  if (!read_all(fd, reinterpret_cast<char*>(header), kFrameHeaderBytes, eof,
                error)) {
    if (eof) {
      set_error(error, "connection closed");
      return ReadStatus::kEof;
    }
    return ReadStatus::kError;
  }
  const std::uint32_t size = decode_frame_header(header);
  if (size > kMaxFrameBytes) {
    set_error(error, "peer announced a " + std::to_string(size) +
                         "-byte frame (cap " +
                         std::to_string(kMaxFrameBytes) + ")");
    return ReadStatus::kOversize;
  }
  payload.resize(size);
  if (size > 0 && !read_all(fd, payload.data(), size, eof, error)) {
    if (eof) set_error(error, "connection closed mid-frame");
    return ReadStatus::kError;  // mid-frame EOF is a protocol error
  }
  return ReadStatus::kOk;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (oversize_) return;  // latched; caller is about to drop the connection
  buffer_.append(data, size);
}

bool FrameDecoder::next(std::string& frame) {
  if (oversize_ || buffer_.size() < kFrameHeaderBytes) return false;
  const std::uint32_t size = decode_frame_header(
      reinterpret_cast<const unsigned char*>(buffer_.data()));
  if (size > kMaxFrameBytes) {
    oversize_ = true;
    return false;
  }
  if (buffer_.size() < kFrameHeaderBytes + size) return false;
  frame.assign(buffer_, kFrameHeaderBytes, size);
  buffer_.erase(0, kFrameHeaderBytes + size);
  return true;
}

}  // namespace subscale::serve
