// Shared harness of the daemon suites: one served connection over a
// socketpair, plus the small server configuration the suites run.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "support/telemetry/metrics.hpp"

namespace grbd::test {

/// One served connection over a socketpair: fd() is the client end; the
/// server end is driven by a dedicated thread running serve_connection.
class Conn {
 public:
  explicit Conn(Server& server) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    client_ = sv[0];
    server_fd_ = sv[1];
    thread_ = std::thread(
        [&server, fd = server_fd_] { server.serve_connection(fd, fd); });
  }
  ~Conn() { close_client(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return client_; }

  void close_client() {
    if (client_ >= 0) {
      ::close(client_);
      client_ = -1;
    }
    if (thread_.joinable()) thread_.join();
    if (server_fd_ >= 0) {
      ::close(server_fd_);
      server_fd_ = -1;
    }
  }

  Frame call(MsgType type, const std::vector<std::uint8_t>& payload = {}) {
    EXPECT_TRUE(write_frame(client_, type, payload));
    auto f = read_frame(client_);
    EXPECT_TRUE(f.has_value());
    return f ? *f : Frame{};
  }

  Frame query(std::uint8_t which, std::uint64_t pin) {
    PayloadWriter req;
    req.u8(which);
    req.u64(pin);
    return call(MsgType::kQuery, req.data());
  }

  /// One kMetrics round trip: the server's registry snapshot.
  grbsm::telemetry::RegistrySnapshot metrics() {
    const Frame f = call(MsgType::kMetrics);
    EXPECT_EQ(f.type, MsgType::kMetricsOk);
    return grbsm::telemetry::parse_snapshot(f.payload.data(), f.payload.size());
  }

  std::uint64_t apply(const sm::ChangeSet& cs) {
    const Frame f = call(MsgType::kApply, encode_change_set(cs));
    EXPECT_EQ(f.type, MsgType::kApplied);
    PayloadReader in(f.payload);
    return in.u64();
  }

 private:
  int client_ = -1;
  int server_fd_ = -1;
  std::thread thread_;
};

inline ServerConfig small_config() {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.depth = 2;
  cfg.retain = 16;
  return cfg;
}

}  // namespace grbd::test
