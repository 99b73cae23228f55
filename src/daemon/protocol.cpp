#include "daemon/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <type_traits>
#include <variant>

namespace grbd {
namespace {

// Change-op tags on the wire, 1:1 with the ChangeOp variant alternatives.
constexpr std::uint8_t kOpAddUser = 1;
constexpr std::uint8_t kOpAddPost = 2;
constexpr std::uint8_t kOpAddComment = 3;
constexpr std::uint8_t kOpAddLikes = 4;
constexpr std::uint8_t kOpAddFriendship = 5;
constexpr std::uint8_t kOpRemoveLikes = 6;
constexpr std::uint8_t kOpRemoveFriendship = 7;

std::uint64_t ts_bits(sm::Timestamp ts) {
  return static_cast<std::uint64_t>(ts);
}
sm::Timestamp bits_ts(std::uint64_t bits) {
  return static_cast<sm::Timestamp>(bits);
}

}  // namespace

// --- Payload codec --------------------------------------------------------

// Every multi-byte write goes through bytes(), which appends with resize +
// memcpy: GCC 12 in Release tracks the push_back/range-insert mix inlined
// into write_error to a 4-byte buffer and stops the build with a false
// -Wstringop-overflow under -Werror.
void PayloadWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  bytes(b, sizeof b);
}

void PayloadWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  bytes(b, sizeof b);
}

void PayloadWriter::bytes(const void* data, std::size_t n) {
  if (n == 0) return;
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  std::memcpy(buf_.data() + at, data, n);
}

std::uint8_t PayloadReader::u8() {
  if (remaining() < 1) throw ProtocolError("payload truncated reading u8");
  return data_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  if (remaining() < 4) throw ProtocolError("payload truncated reading u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  if (remaining() < 8) throw ProtocolError("payload truncated reading u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string PayloadReader::rest() {
  std::string s(reinterpret_cast<const char*>(data_ + pos_), remaining());
  pos_ = size_;
  return s;
}

void PayloadReader::expect_done() const {
  if (pos_ != size_) {
    throw ProtocolError("trailing bytes after payload (" +
                        std::to_string(size_ - pos_) + " unread)");
  }
}

std::vector<std::uint8_t> encode_change_set(const sm::ChangeSet& cs) {
  PayloadWriter out;
  out.u32(static_cast<std::uint32_t>(cs.ops.size()));
  for (const sm::ChangeOp& op : cs.ops) {
    std::visit(
        [&out](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, sm::AddUser>) {
            out.u8(kOpAddUser);
            out.u64(o.id);
          } else if constexpr (std::is_same_v<T, sm::AddPost>) {
            out.u8(kOpAddPost);
            out.u64(o.id);
            out.u64(ts_bits(o.timestamp));
            out.u64(o.submitter);
          } else if constexpr (std::is_same_v<T, sm::AddComment>) {
            out.u8(kOpAddComment);
            out.u64(o.id);
            out.u64(ts_bits(o.timestamp));
            out.u8(o.parent_is_comment ? 1 : 0);
            out.u64(o.parent);
            out.u64(o.submitter);
          } else if constexpr (std::is_same_v<T, sm::AddLikes>) {
            out.u8(kOpAddLikes);
            out.u64(o.user);
            out.u64(o.comment);
          } else if constexpr (std::is_same_v<T, sm::AddFriendship>) {
            out.u8(kOpAddFriendship);
            out.u64(o.a);
            out.u64(o.b);
          } else if constexpr (std::is_same_v<T, sm::RemoveLikes>) {
            out.u8(kOpRemoveLikes);
            out.u64(o.user);
            out.u64(o.comment);
          } else {
            static_assert(std::is_same_v<T, sm::RemoveFriendship>);
            out.u8(kOpRemoveFriendship);
            out.u64(o.a);
            out.u64(o.b);
          }
        },
        op);
  }
  return out.take();
}

sm::ChangeSet decode_change_set(PayloadReader& in) {
  const std::uint32_t count = in.u32();
  // The smallest op on the wire is 9 bytes (tag + one u64). A declared
  // count the payload cannot possibly hold is refused here, *before* the
  // reserve below — a hostile count=0xFFFFFFFF in a 9-byte frame must not
  // become a multi-GB allocation attempt.
  constexpr std::size_t kMinOpBytes = 9;
  if (count > in.remaining() / kMinOpBytes) {
    throw ProtocolError("change-set op count " + std::to_string(count) +
                        " exceeds what the " + std::to_string(in.remaining()) +
                        " payload bytes can hold");
  }
  sm::ChangeSet cs;
  cs.ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t tag = in.u8();
    switch (tag) {
      case kOpAddUser: {
        sm::AddUser o;
        o.id = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpAddPost: {
        sm::AddPost o;
        o.id = in.u64();
        o.timestamp = bits_ts(in.u64());
        o.submitter = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpAddComment: {
        sm::AddComment o;
        o.id = in.u64();
        o.timestamp = bits_ts(in.u64());
        o.parent_is_comment = in.u8() != 0;
        o.parent = in.u64();
        o.submitter = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpAddLikes: {
        sm::AddLikes o;
        o.user = in.u64();
        o.comment = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpAddFriendship: {
        sm::AddFriendship o;
        o.a = in.u64();
        o.b = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpRemoveLikes: {
        sm::RemoveLikes o;
        o.user = in.u64();
        o.comment = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      case kOpRemoveFriendship: {
        sm::RemoveFriendship o;
        o.a = in.u64();
        o.b = in.u64();
        cs.ops.emplace_back(o);
        break;
      }
      default:
        throw ProtocolError("unknown change-op tag " + std::to_string(tag));
    }
  }
  return cs;
}

// --- Framed stream I/O ----------------------------------------------------

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a boundary
      throw ProtocolError("peer disconnected mid-frame (" +
                          std::to_string(got) + "/" + std::to_string(n) +
                          " bytes)");
    }
    if (errno == EINTR) continue;
    throw ProtocolError(std::string("read failed: ") + std::strerror(errno));
  }
  return true;
}

std::optional<Frame> read_frame(int fd, std::size_t max_frame) {
  std::uint8_t header[4];
  if (!read_exact(fd, header, sizeof header)) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (length < 1) throw ProtocolError("frame length 0 (missing type byte)");
  if (length > max_frame) {
    throw ProtocolError("frame of " + std::to_string(length) +
                        " bytes exceeds the " + std::to_string(max_frame) +
                        "-byte limit");
  }
  std::uint8_t type = 0;
  // EOF below here is a truncated frame, never a clean close.
  if (!read_exact(fd, &type, 1)) {
    throw ProtocolError("peer disconnected mid-frame (0/1 type bytes)");
  }
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload.resize(length - 1);
  if (!f.payload.empty() &&
      !read_exact(fd, f.payload.data(), f.payload.size())) {
    throw ProtocolError("peer disconnected mid-frame (payload)");
  }
  return f;
}

namespace {

/// send(MSG_NOSIGNAL) so a vanished peer is EPIPE, not SIGPIPE; pipes and
/// regular fds reject send() with ENOTSOCK, so fall back to write() there
/// (those transports ignore SIGPIPE process-wide in main()).
ssize_t write_some(int fd, const std::uint8_t* p, std::size_t n) {
  const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
  if (w >= 0 || errno != ENOTSOCK) return w;
  return ::write(fd, p, n);
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = write_some(fd, p + sent, n - sent);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    throw ProtocolError(std::string("write failed: ") + std::strerror(errno));
  }
  return true;
}

}  // namespace

bool write_frame(int fd, MsgType type, const std::uint8_t* payload,
                 std::size_t n) {
  const std::uint32_t length = static_cast<std::uint32_t>(n) + 1;
  std::vector<std::uint8_t> wire;
  wire.reserve(4 + length);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
  }
  wire.push_back(static_cast<std::uint8_t>(type));
  if (n != 0) wire.insert(wire.end(), payload, payload + n);
  return write_all(fd, wire.data(), wire.size());
}

bool write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  return write_frame(fd, type, payload.data(), payload.size());
}

bool write_error(int fd, ErrorCode code, const std::string& message) {
  PayloadWriter out;
  out.u32(static_cast<std::uint32_t>(code));
  out.str(message);
  return write_frame(fd, MsgType::kError, out.data());
}

}  // namespace grbd
