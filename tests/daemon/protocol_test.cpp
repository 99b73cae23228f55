// Framing and codec tests for the daemon wire protocol: truncated frames,
// oversized declared lengths, short reads/writes, mid-request disconnects
// and SIGPIPE-safe writes — the robustness contract of protocol.hpp.
#include "daemon/protocol.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace grbd {
namespace {

/// A connected fd pair; [0] and [1] are both read/write ends.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
  }
  ~SocketPair() {
    for (int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
  void close_end(int i) {
    ::close(fd[i]);
    fd[i] = -1;
  }
};

std::vector<std::uint8_t> wire_frame(MsgType type,
                                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> w;
  const auto length = static_cast<std::uint32_t>(payload.size() + 1);
  for (int i = 0; i < 4; ++i) {
    w.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
  }
  w.push_back(static_cast<std::uint8_t>(type));
  w.insert(w.end(), payload.begin(), payload.end());
  return w;
}

TEST(DaemonProtocol, FrameRoundTrip) {
  SocketPair sp;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 0xff, 0};
  ASSERT_TRUE(write_frame(sp.fd[0], MsgType::kApply, payload));
  const auto f = read_frame(sp.fd[1]);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kApply);
  EXPECT_EQ(f->payload, payload);
}

TEST(DaemonProtocol, EmptyPayloadRoundTrip) {
  SocketPair sp;
  ASSERT_TRUE(write_frame(sp.fd[0], MsgType::kHello));
  const auto f = read_frame(sp.fd[1]);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kHello);
  EXPECT_TRUE(f->payload.empty());
}

TEST(DaemonProtocol, CleanEofBetweenFramesIsNullopt) {
  SocketPair sp;
  ASSERT_TRUE(write_frame(sp.fd[0], MsgType::kMetrics));
  sp.close_end(0);
  EXPECT_TRUE(read_frame(sp.fd[1]).has_value());
  EXPECT_FALSE(read_frame(sp.fd[1]).has_value());
}

TEST(DaemonProtocol, TruncatedHeaderThrows) {
  SocketPair sp;
  const std::uint8_t half_header[2] = {9, 0};
  ASSERT_EQ(::write(sp.fd[0], half_header, 2), 2);
  sp.close_end(0);
  EXPECT_THROW((void)read_frame(sp.fd[1]), ProtocolError);
}

TEST(DaemonProtocol, MidRequestDisconnectThrows) {
  SocketPair sp;
  // Header promises 9 payload bytes; only 3 arrive before the peer dies.
  auto wire = wire_frame(MsgType::kApply, std::vector<std::uint8_t>(9, 7));
  wire.resize(4 + 1 + 3);
  ASSERT_EQ(::write(sp.fd[0], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  sp.close_end(0);
  EXPECT_THROW((void)read_frame(sp.fd[1]), ProtocolError);
}

TEST(DaemonProtocol, ZeroLengthFrameThrows) {
  SocketPair sp;
  const std::uint8_t header[4] = {0, 0, 0, 0};  // no room for the type byte
  ASSERT_EQ(::write(sp.fd[0], header, 4), 4);
  EXPECT_THROW((void)read_frame(sp.fd[1]), ProtocolError);
}

TEST(DaemonProtocol, OversizedDeclaredLengthRefusedBeforeAllocation) {
  SocketPair sp;
  const std::uint8_t header[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB claim
  ASSERT_EQ(::write(sp.fd[0], header, 4), 4);
  EXPECT_THROW((void)read_frame(sp.fd[1], /*max_frame=*/1 << 20),
               ProtocolError);
}

TEST(DaemonProtocol, ShortReadsAreReassembled) {
  SocketPair sp;
  const std::vector<std::uint8_t> payload(300, 0xab);
  const auto wire = wire_frame(MsgType::kQuery, payload);
  // Dribble the frame one byte at a time from another thread: every read
  // on the receiving side is short, so read_exact must loop.
  std::thread dribbler([&] {
    for (const std::uint8_t b : wire) {
      ASSERT_EQ(::write(sp.fd[0], &b, 1), 1);
    }
  });
  const auto f = read_frame(sp.fd[1]);
  dribbler.join();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kQuery);
  EXPECT_EQ(f->payload, payload);
}

TEST(DaemonProtocol, WriteToVanishedPeerReturnsFalseNotSigpipe) {
  SocketPair sp;
  sp.close_end(1);  // the reader is gone
  // Large enough to overflow any socket buffer, so the EPIPE surfaces even
  // if the first write is buffered. MSG_NOSIGNAL must keep SIGPIPE away —
  // this test would kill the whole binary otherwise.
  const std::vector<std::uint8_t> big(1 << 20, 0x5a);
  EXPECT_FALSE(write_frame(sp.fd[0], MsgType::kAnswer, big));
}

TEST(DaemonProtocol, PayloadReaderBoundsChecked) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  PayloadReader in(three);
  EXPECT_EQ(in.u8(), 1);
  EXPECT_THROW((void)in.u32(), ProtocolError);
  PayloadReader in64(three);
  EXPECT_THROW((void)in64.u64(), ProtocolError);
}

TEST(DaemonProtocol, TrailingBytesRejected) {
  PayloadWriter out;
  out.u32(7);
  out.u8(0);
  PayloadReader in(out.data());
  EXPECT_EQ(in.u32(), 7u);
  EXPECT_THROW(in.expect_done(), ProtocolError);
  EXPECT_EQ(in.u8(), 0);
  EXPECT_NO_THROW(in.expect_done());
}

TEST(DaemonProtocol, ChangeSetCodecRoundTripsEveryOp) {
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddUser{42});
  cs.ops.push_back(sm::AddPost{7, 123456789, 42});
  cs.ops.push_back(sm::AddComment{8, -5, true, 7, 42});
  cs.ops.push_back(sm::AddLikes{42, 8});
  cs.ops.push_back(sm::AddFriendship{42, 43});
  cs.ops.push_back(sm::RemoveLikes{42, 8});
  cs.ops.push_back(sm::RemoveFriendship{42, 43});
  const auto encoded = encode_change_set(cs);
  PayloadReader in(encoded);
  const sm::ChangeSet back = decode_change_set(in);
  in.expect_done();
  ASSERT_EQ(back.ops.size(), cs.ops.size());
  for (std::size_t i = 0; i < cs.ops.size(); ++i) {
    EXPECT_EQ(back.ops[i], cs.ops[i]) << "op " << i;
  }
}

TEST(DaemonProtocol, EmptyChangeSetRoundTrips) {
  const auto encoded = encode_change_set(sm::ChangeSet{});
  PayloadReader in(encoded);
  EXPECT_TRUE(decode_change_set(in).empty());
  in.expect_done();
}

TEST(DaemonProtocol, HostileOpCountRefusedBeforeAllocation) {
  // count=0xFFFFFFFF over a near-empty payload must be a ProtocolError
  // thrown before ops.reserve() — not a ~200 GB allocation attempt whose
  // bad_alloc would escape the protocol-error handling.
  PayloadWriter out;
  out.u32(0xFFFFFFFFu);
  out.u8(1);  // one stray byte; far too few for even a single op
  PayloadReader in(out.data());
  EXPECT_THROW((void)decode_change_set(in), ProtocolError);
}

TEST(DaemonProtocol, OpCountJustAbovePayloadCapacityRefused) {
  // Two minimal 9-byte ops on the wire, but a declared count of three.
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddUser{1});
  cs.ops.push_back(sm::AddUser{2});
  auto encoded = encode_change_set(cs);
  encoded[0] = 3;  // count lives in the little-endian first 4 bytes
  PayloadReader in(encoded);
  EXPECT_THROW((void)decode_change_set(in), ProtocolError);
}

TEST(DaemonProtocol, UnknownChangeOpTagThrows) {
  PayloadWriter out;
  out.u32(1);
  out.u8(99);  // no such op
  PayloadReader in(out.data());
  EXPECT_THROW((void)decode_change_set(in), ProtocolError);
}

TEST(DaemonProtocol, TruncatedChangeSetThrows) {
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddPost{7, 1000, 42});
  auto encoded = encode_change_set(cs);
  encoded.resize(encoded.size() - 4);  // cut into the last u64
  PayloadReader in(encoded);
  EXPECT_THROW((void)decode_change_set(in), ProtocolError);
}

}  // namespace
}  // namespace grbd
