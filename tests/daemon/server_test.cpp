// End-to-end daemon server tests over socketpairs: protocol conversation,
// byte-identity of every served answer against the serial oracle under
// concurrent readers, error recovery, eviction, and shutdown draining.
// The TSan lane re-runs this suite (concurrent readers + writer thread).
#include "daemon/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/protocol.hpp"
#include "daemon/test_conn.hpp"
#include "datagen/generator.hpp"
#include "harness/runner.hpp"
#include "paper_example.hpp"
#include "queries/top_k.hpp"
#include "support/telemetry/metrics.hpp"

namespace grbd {
namespace {

using test::Conn;
using test::small_config;

std::string answer_of(const Frame& f) {
  EXPECT_EQ(f.type, MsgType::kAnswer);
  PayloadReader in(f.payload);
  (void)in.u64();
  return in.rest();
}

std::uint64_t epoch_of(const Frame& f) {
  PayloadReader in(f.payload);
  return in.u64();
}

/// oracle[k] = serial answer at epoch k (0 = initial evaluation).
std::vector<std::string> serial_oracle(
    harness::Query q, const sm::SocialGraph& g,
    const std::vector<sm::ChangeSet>& changes) {
  const harness::RunResult r =
      harness::run_once(harness::find_tool("grb-incremental"), q, g, changes);
  std::vector<std::string> oracle = {r.initial_answer};
  oracle.insert(oracle.end(), r.update_answers.begin(),
                r.update_answers.end());
  return oracle;
}

/// A change set that is valid any number of times (duplicate likes are
/// tolerated no-ops) — for tests that just need to burn epochs.
sm::ChangeSet idempotent_change_set() {
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddLikes{paper_example::kU1, paper_example::kC1});
  return cs;
}

TEST(DaemonServer, HelloApplyQueryConversation) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);

  const Frame hello = conn.call(MsgType::kHello);
  ASSERT_EQ(hello.type, MsgType::kHelloOk);
  {
    PayloadReader in(hello.payload);
    EXPECT_EQ(in.u64(), 0u);  // latest epoch: only the initial evaluation
    EXPECT_EQ(in.u32(), 2u);  // shards
    EXPECT_EQ(in.u32(), 2u);  // depth
    EXPECT_EQ(in.u32(), 16u);  // retain
    in.expect_done();
  }

  EXPECT_EQ(answer_of(conn.query(kQueryQ1, 0)), paper_example::kQ1Initial);
  EXPECT_EQ(answer_of(conn.query(kQueryQ2, 0)), paper_example::kQ2Initial);

  EXPECT_EQ(conn.apply(paper_example::update_change_set()), 1u);
  // Pinned read of the epoch the write created: waits server-side.
  EXPECT_EQ(answer_of(conn.query(kQueryQ1, 1)), paper_example::kQ1Updated);
  EXPECT_EQ(answer_of(conn.query(kQueryQ2, 1)), paper_example::kQ2Updated);
  // Latest now serves epoch 1 too.
  const Frame latest = conn.query(kQueryQ2, kLatestEpoch);
  EXPECT_EQ(epoch_of(latest), 1u);
  EXPECT_EQ(answer_of(latest), paper_example::kQ2Updated);

  const grbsm::telemetry::RegistrySnapshot reg = conn.metrics();
  EXPECT_EQ(reg.value_or("daemon.latest_epoch", ~0ull), 1u);
  EXPECT_EQ(reg.value_or("daemon.applied", ~0ull), 1u);
  EXPECT_GE(reg.value_or("daemon.queries", 0), 5u);
  EXPECT_EQ(reg.value_or("daemon.retained", ~0ull), 2u);
  EXPECT_EQ(reg.value_or("daemon.in_flight", ~0ull), 0u);
  // Prune counters (process-global, so only invariants are checked): every
  // considered block was either scanned or skipped.
  const queries::PruneStats p = queries::prune_stats_of(reg);
  EXPECT_EQ(p.blocks_scanned + p.blocks_skipped, p.blocks_total);
  EXPECT_GE(p.pool_rebuilds, 1u);  // initial() built the pools

  const Frame ok = conn.call(MsgType::kShutdown);
  EXPECT_EQ(ok.type, MsgType::kOk);
}

TEST(DaemonServer, ConcurrentReadersServeByteIdenticalAnswers) {
  // A denser dataset than the paper example so several epochs are in
  // flight while readers hammer the store.
  datagen::GeneratorParams params;
  params.seed = 7;
  params.users = 60;
  params.posts = 25;
  params.comments = 120;
  params.friendships = 150;
  params.likes = 300;
  params.insert_elements = 360;
  params.change_sets = 8;
  const datagen::Dataset ds = datagen::generate(params);
  const auto oracle_q1 =
      serial_oracle(harness::Query::kQ1, ds.initial, ds.changes);
  const auto oracle_q2 =
      serial_oracle(harness::Query::kQ2, ds.initial, ds.changes);

  Server server(small_config());
  server.load(ds.initial);

  constexpr int kReaders = 4;
  std::vector<std::unique_ptr<Conn>> readers;
  std::vector<std::thread> reader_threads;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Conn>(server));
  }
  for (int r = 0; r < kReaders; ++r) {
    Conn& conn = *readers[r];
    const std::uint8_t which = r % 2 == 0 ? kQueryQ1 : kQueryQ2;
    const auto& oracle = r % 2 == 0 ? oracle_q1 : oracle_q2;
    reader_threads.emplace_back([&conn, which, &oracle] {
      // Epoch-pinned sweeps interleaved with latest reads while the writer
      // streams: every answer must be byte-identical to the oracle at the
      // epoch the daemon stamped on it.
      for (int round = 0; round < 30; ++round) {
        const Frame latest = conn.query(which, kLatestEpoch);
        ASSERT_EQ(latest.type, MsgType::kAnswer);
        const std::uint64_t e = epoch_of(latest);
        ASSERT_LT(e, oracle.size());
        EXPECT_EQ(answer_of(latest), oracle[e]);
        const Frame pinned = conn.query(which, e);  // still retained
        ASSERT_EQ(pinned.type, MsgType::kAnswer);
        EXPECT_EQ(epoch_of(pinned), e);
        EXPECT_EQ(answer_of(pinned), oracle[e]);
      }
    });
  }

  Conn writer(server);
  for (std::size_t k = 0; k < ds.changes.size(); ++k) {
    EXPECT_EQ(writer.apply(ds.changes[k]), k + 1);
  }
  for (std::thread& t : reader_threads) t.join();

  // Drain, then sweep every retained epoch once more.
  server.drain();
  for (std::uint64_t e = 0; e <= ds.changes.size(); ++e) {
    EXPECT_EQ(answer_of(writer.query(kQueryQ1, e)), oracle_q1[e]);
    EXPECT_EQ(answer_of(writer.query(kQueryQ2, e)), oracle_q2[e]);
  }
}

TEST(DaemonServer, EmptyChangeSetIsAnEpoch) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);
  EXPECT_EQ(conn.apply(sm::ChangeSet{}), 1u);
  EXPECT_EQ(conn.apply(paper_example::update_change_set()), 2u);
  // The empty epoch publishes the unchanged answer; the next one moves.
  EXPECT_EQ(answer_of(conn.query(kQueryQ2, 1)), paper_example::kQ2Initial);
  EXPECT_EQ(answer_of(conn.query(kQueryQ2, 2)), paper_example::kQ2Updated);
}

TEST(DaemonServer, MalformedRequestsKeepTheConnectionServing) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);

  // Unknown message types: an arbitrary byte, and 0x04 — the retired
  // fixed-layout stats request, whose type byte is not reused.
  const std::uint8_t unknown_types[] = {0x42, 0x04};
  Frame f;
  for (const std::uint8_t type : unknown_types) {
    f = conn.call(static_cast<MsgType>(type));
    ASSERT_EQ(f.type, MsgType::kError) << "type " << unsigned{type};
    PayloadReader in(f.payload);
    EXPECT_EQ(in.u32(), static_cast<std::uint32_t>(ErrorCode::kBadRequest));
  }
  // Garbage kApply payload (bad op tag).
  f = conn.call(MsgType::kApply, {1, 0, 0, 0, 99});
  ASSERT_EQ(f.type, MsgType::kError);
  // Hostile kApply op count (0xFFFFFFFF ops declared, zero payload bytes):
  // must come back kBadRequest, not OOM-kill or std::terminate the daemon.
  f = conn.call(MsgType::kApply, {0xff, 0xff, 0xff, 0xff});
  ASSERT_EQ(f.type, MsgType::kError);
  {
    PayloadReader in(f.payload);
    EXPECT_EQ(in.u32(), static_cast<std::uint32_t>(ErrorCode::kBadRequest));
  }
  // Bad query selector.
  {
    PayloadWriter req;
    req.u8(9);
    req.u64(0);
    f = conn.call(MsgType::kQuery, req.data());
    EXPECT_EQ(f.type, MsgType::kError);
  }
  // Trailing bytes after a well-formed kHello payload.
  f = conn.call(MsgType::kHello, {0xaa});
  EXPECT_EQ(f.type, MsgType::kError);

  // After all that abuse, the connection still answers correctly.
  EXPECT_EQ(answer_of(conn.query(kQueryQ1, 0)), paper_example::kQ1Initial);
}

TEST(DaemonServer, PinnedReadOfEvictedEpochFailsEvicted) {
  ServerConfig cfg = small_config();
  cfg.retain = 2;
  Server server(cfg);
  server.load(paper_example::initial_graph());
  Conn conn(server);
  for (int k = 0; k < 4; ++k) {
    (void)conn.apply(idempotent_change_set());
  }
  server.drain();
  const Frame f = conn.query(kQueryQ1, 0);  // long gone with retain=2
  ASSERT_EQ(f.type, MsgType::kError);
  PayloadReader in(f.payload);
  EXPECT_EQ(in.u32(), static_cast<std::uint32_t>(ErrorCode::kEvicted));
}

TEST(DaemonServer, PinnedReadOfUnpublishedEpochTimesOutNotReady) {
  ServerConfig cfg = small_config();
  cfg.query_wait = std::chrono::milliseconds(30);
  Server server(cfg);
  server.load(paper_example::initial_graph());
  Conn conn(server);
  const Frame f = conn.query(kQueryQ1, 5);  // nobody ever writes epoch 5
  ASSERT_EQ(f.type, MsgType::kError);
  PayloadReader in(f.payload);
  EXPECT_EQ(in.u32(), static_cast<std::uint32_t>(ErrorCode::kNotReady));
}

TEST(DaemonServer, MidRequestDisconnectLeavesTheServerServing) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  {
    Conn dying(server);
    // A header promising more than the client ever sends...
    const std::uint8_t partial[] = {50, 0, 0, 0,
                                    static_cast<std::uint8_t>(MsgType::kApply),
                                    1, 2, 3};
    ASSERT_EQ(::write(dying.fd(), partial, sizeof partial),
              static_cast<ssize_t>(sizeof partial));
    dying.close_client();  // ...then vanishes mid-request
  }
  // The next connection is served normally.
  Conn conn(server);
  EXPECT_EQ(answer_of(conn.query(kQueryQ2, 0)), paper_example::kQ2Initial);
}

TEST(DaemonServer, DrainReturnsAfterWriterFailure) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  // A semantically invalid change set: likes on a comment that does not
  // exist. The writer thread throws routing it and dies through its catch
  // block, so epoch 1 was assigned but will never publish.
  sm::ChangeSet poison;
  poison.ops.push_back(sm::AddLikes{paper_example::kU1, 999999});
  EXPECT_EQ(server.enqueue(poison), 1u);
  // Regression: drain() used to spin forever here, waiting for a publish
  // that can no longer happen. It must return once the writer is dead.
  server.drain();
  std::uint64_t latest = 0;
  ASSERT_TRUE(server.store().latest_epoch(latest));
  EXPECT_EQ(latest, 0u);  // only the initial evaluation ever published
  // The failure also shut ingestion down.
  EXPECT_EQ(server.enqueue(idempotent_change_set()), 0u);
}

TEST(DaemonServer, ShutdownDrainsPromisedEpochs) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);
  std::uint64_t last = 0;
  for (int k = 0; k < 5; ++k) last = conn.apply(idempotent_change_set());
  EXPECT_EQ(last, 5u);
  const Frame ok = conn.call(MsgType::kShutdown);
  EXPECT_EQ(ok.type, MsgType::kOk);
  server.drain();
  std::uint64_t latest = 0;
  ASSERT_TRUE(server.store().latest_epoch(latest));
  EXPECT_EQ(latest, 5u);
  // Writes after shutdown are refused.
  EXPECT_EQ(server.enqueue(idempotent_change_set()), 0u);
}

TEST(DaemonServer, UnixSocketTransportEndToEnd) {
  const std::string path =
      testing::TempDir() + "grb_daemon_test_" +
      std::to_string(::getpid()) + ".sock";
  Server server(small_config());
  server.load(paper_example::initial_graph());
  std::thread acceptor([&server, &path] {
    EXPECT_EQ(server.serve_unix(path), 0);
  });

  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200 && fd < 0; ++attempt) {
    const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(s, 0);
    if (::connect(s, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      fd = s;
    } else {
      ::close(s);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;

  ASSERT_TRUE(write_frame(fd, MsgType::kHello));
  auto hello = read_frame(fd);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, MsgType::kHelloOk);
  ASSERT_TRUE(write_frame(fd, MsgType::kShutdown));
  auto ok = read_frame(fd);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->type, MsgType::kOk);
  ::close(fd);
  acceptor.join();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace grbd
