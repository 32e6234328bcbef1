#pragma once

/// \file protocol.h
/// Length-prefixed framing for the design-query wire: every message —
/// request or response — travels as a 4-byte big-endian payload length
/// followed by that many bytes of UTF-8 JSON. Framing is the ONLY thing
/// this layer knows; the payload schema lives in serve/query.h, so the
/// framing code is reusable byte plumbing.
///
/// The frame cap (kMaxFrameBytes) bounds what a malicious or buggy
/// client can make the daemon buffer; an oversize length prefix is a
/// protocol error that closes the connection (there is no way to
/// resynchronize a corrupt length stream).
///
/// Two consumption styles:
///   * read_frame/write_frame — blocking, whole-frame I/O on a socket
///     (the client library, the one-shot CLI and the server's replies);
///   * FrameDecoder — incremental: feed whatever bytes poll() produced,
///     pop complete frames (the server's per-connection read path).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace subscale::serve {

/// Upper bound on one frame's payload (a full-card figure response is
/// ~10 KB; 16 MiB leaves two orders of headroom for future payloads).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Bytes of the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Encode `payload`'s length prefix into `header` (big-endian).
void encode_frame_header(std::uint32_t payload_size,
                         unsigned char header[kFrameHeaderBytes]);
/// Decode a length prefix.
std::uint32_t decode_frame_header(const unsigned char header[kFrameHeaderBytes]);

/// Write one complete frame (header + payload) to a blocking socket,
/// retrying short writes and EINTR. False on I/O error or an oversize
/// payload, with the reason in `error` when non-null. Writes with
/// MSG_NOSIGNAL: a peer that vanished produces an error return, never
/// SIGPIPE.
bool write_frame(int fd, std::string_view payload,
                 std::string* error = nullptr);

enum class ReadStatus {
  kOk,       ///< one complete frame in `payload`
  kEof,      ///< orderly close before any byte of a new frame
  kError,    ///< I/O error or mid-frame EOF (reason in `error`)
  kOversize  ///< length prefix exceeds kMaxFrameBytes
};

/// Read one complete frame from a blocking socket.
ReadStatus read_frame(int fd, std::string& payload,
                      std::string* error = nullptr);

/// Incremental frame extraction for non-blocking reads: feed() whatever
/// arrived, then pop frames with next() until it returns false. An
/// oversize length prefix latches the decoder into an error state
/// (oversize() true, next() false forever) — the connection must be
/// dropped.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  /// Pop the next complete frame into `frame`; false when no complete
  /// frame is buffered (or the decoder is latched on oversize).
  bool next(std::string& frame);
  bool oversize() const { return oversize_; }
  /// Bytes buffered but not yet popped (test observability).
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  bool oversize_ = false;
};

}  // namespace subscale::serve
