// Wire protocol of the grb_daemon query service: a length-prefixed binary
// framing over any byte stream (a Unix-domain socket in production, a
// pipe/stdio pair in tests), plus the message codec.
//
// Frame layout (all integers little-endian):
//
//   [u32 length][u8 type][payload: length-1 bytes]
//
// `length` counts the type byte plus the payload, so a frame is at least 5
// bytes on the wire and `length >= 1` always. A declared length above the
// transport's max_frame budget is a protocol error — the reader refuses it
// *before* allocating, so a hostile 4 GiB header cannot balloon the daemon.
//
// Requests                      Responses
//   kHello                        kHelloOk   u64 latest_epoch, u32 shards,
//                                            u32 depth, u32 retain
//   kApply    change-set codec    kApplied   u64 epoch
//   kQuery    u8 query, u64 epoch kAnswer    u64 epoch, answer bytes
//   kMetrics                      kMetricsOk registry snapshot (telemetry
//                                            wire codec, schema-versioned)
//   kShutdown                     kOk
//   (malformed request)           kError     u32 code, message bytes
//
// kQuery's epoch pins the snapshot the answer is served from: kLatestEpoch
// means "whatever is newest", any other value waits (bounded) for that
// epoch to publish and fails with kEvicted if it has already left the
// retention window. Epoch 0 is the initial evaluation; change set k
// publishes epoch k.
//
// kMetrics is the only stats request: every counter leaves the daemon as
// one coherent registry snapshot (daemon.*, prune.*, epoch.*_us),
// and a client reads an interval by diffing two of them with
// RegistrySnapshot::delta_since. Type bytes 0x04/0x84 (the retired
// fixed-layout stats pair) are not reused; a 0x04 request gets kBadRequest.
//
// Robustness contract (the daemon outlives its clients):
//   * short reads/writes are looped over; EINTR is retried;
//   * EOF cleanly between frames ends the connection, EOF *inside* a frame
//     is a ProtocolError (mid-request disconnect);
//   * writes use send(MSG_NOSIGNAL) on sockets so a reader vanishing mid-
//     response yields EPIPE (write_frame returns false) instead of killing
//     the process with SIGPIPE; stdio transports ignore SIGPIPE in main().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/change.hpp"

namespace grbd {

/// Malformed frame or payload (truncation, oversize, bad tag, trailing
/// bytes). Connections die on it; the daemon does not.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kApply = 0x02,
  kQuery = 0x03,
  kShutdown = 0x05,
  /// Empty request; answers kMetricsOk carrying one serialized telemetry
  /// registry snapshot (support/telemetry/metrics.hpp wire codec,
  /// schema-versioned).
  kMetrics = 0x06,
  kHelloOk = 0x81,
  kApplied = 0x82,
  kAnswer = 0x83,
  kOk = 0x85,
  kMetricsOk = 0x86,
  kError = 0xff,
};

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,  ///< unknown type / malformed payload
  kEvicted = 2,     ///< pinned epoch left the retention window
  kNotReady = 3,    ///< pinned epoch not published within the wait budget
  kShuttingDown = 4,
  kInternal = 5,  ///< unexpected server-side failure; connection is dropped
};

/// Query selector inside kQuery payloads.
inline constexpr std::uint8_t kQueryQ1 = 0;
inline constexpr std::uint8_t kQueryQ2 = 1;
/// "Serve the newest snapshot" epoch pin.
inline constexpr std::uint64_t kLatestEpoch = ~std::uint64_t{0};

/// Frames larger than this are refused by default (both directions).
inline constexpr std::size_t kDefaultMaxFrame = 16u << 20;

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// --- Payload codec --------------------------------------------------------

/// Bounds-checked little-endian payload writer.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s) { bytes(s.data(), s.size()); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; throws ProtocolError on a
/// short payload, and expect_done() rejects trailing bytes.
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Every byte left in the payload, as a string (answers are strings).
  std::string rest();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  void expect_done() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Binary change-set codec: u32 op count, then per op a u8 tag (1..7,
/// matching the ChangeOp variant order) and the op's u64/i64 fields.
std::vector<std::uint8_t> encode_change_set(const sm::ChangeSet& cs);
sm::ChangeSet decode_change_set(PayloadReader& in);

// --- Framed stream I/O ----------------------------------------------------

/// Reads exactly n bytes (looping over short reads, retrying EINTR).
/// Returns false on EOF before the first byte; throws ProtocolError on EOF
/// mid-buffer or a read error.
bool read_exact(int fd, void* buf, std::size_t n);

/// Reads one frame. nullopt = clean EOF at a frame boundary. Throws
/// ProtocolError on truncation (mid-request disconnect) or when the header
/// declares more than max_frame bytes.
std::optional<Frame> read_frame(int fd,
                                std::size_t max_frame = kDefaultMaxFrame);

/// Writes one frame (looping over short writes, retrying EINTR). Returns
/// false when the peer vanished (EPIPE/ECONNRESET — SIGPIPE-safe via
/// MSG_NOSIGNAL on sockets); throws ProtocolError on other errors.
bool write_frame(int fd, MsgType type, const std::uint8_t* payload,
                 std::size_t n);
bool write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload);
inline bool write_frame(int fd, MsgType type) {
  return write_frame(fd, type, nullptr, 0);
}

/// Convenience kError emitter (best-effort: result ignored by callers that
/// are about to close anyway).
bool write_error(int fd, ErrorCode code, const std::string& message);

}  // namespace grbd
