// The grb_daemon service core: one long-running Server wraps a pair of
// pipelined engines (Q1 + Q2, same shard layout) behind the wire protocol
// of protocol.hpp.
//
// Threading model — exactly one writer, any number of readers:
//
//   * Connection threads never touch the engines. A kApply enqueues the
//     decoded change set (mutex+cv queue) and immediately learns its epoch
//     number; a kQuery pins a snapshot in the EpochStore with one locked
//     shared_ptr copy (lock-light — see epoch_store.hpp) and
//     serves from it. Readers therefore never wait on the apply path, and
//     the apply path never waits on readers.
//   * The single writer thread drains the queue into the engines'
//     streaming API with a window-filling policy: while the ingest queue
//     has work and the pipeline window is open, submit() — keeping up to
//     `depth` change sets in flight across the shard workers; when the
//     window is full or the queue idles, merge_one() the oldest epoch from
//     both engines and publish its Snapshot. Under load the window stays
//     full (maximum overlap); under trickle load every change set still
//     publishes promptly.
//
// Epoch numbering: snapshot 0 is the initial evaluation; change set k
// (1-based, in enqueue order) publishes snapshot k. Because the writer is
// the merge thread and the merge replays the serial schedule, every
// published answer is byte-identical to the serial oracle at that epoch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/epoch_store.hpp"
#include "daemon/protocol.hpp"
#include "model/social_graph.hpp"
#include "shard/pipelined_engine.hpp"

namespace grbd {

struct ServerConfig {
  std::size_t shards = 4;
  std::size_t depth = 4;
  /// Snapshots kept for epoch-pinned readers.
  std::size_t retain = 64;
  std::size_t max_frame = kDefaultMaxFrame;
  /// How long a kQuery pinned to a future epoch may wait for it.
  std::chrono::milliseconds query_wait{5000};
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads both engines, publishes snapshot 0 (the initial evaluation) and
  /// starts the writer thread. Must be called exactly once, before any
  /// connection is served.
  void load(const sm::SocialGraph& g);

  /// Queues one change set for ingestion. Returns its (1-based) epoch
  /// number — the snapshot it will publish — or 0 when the server is
  /// shutting down and refuses new writes. Thread-safe.
  std::uint64_t enqueue(sm::ChangeSet cs);

  /// Serves one client on an fd pair (equal for sockets, distinct for
  /// stdio/pipe transports) until EOF, a fatal framing error, a vanished
  /// peer or a kShutdown. Runs on the caller's thread; any number may run
  /// concurrently.
  void serve_connection(int in_fd, int out_fd);

  /// Binds a Unix-domain socket at `path` (replacing a stale file) and
  /// accepts connections — one thread each — until request_shutdown().
  /// Returns 0, or -1 with errno set when the socket cannot be set up.
  int serve_unix(const std::string& path);

  /// Stops accepting, unblocks every live connection, and tells the writer
  /// to drain the queue and exit. Thread-safe, idempotent.
  void request_shutdown();

  /// The write-refusal half of request_shutdown() alone: enqueue() returns
  /// 0 from here on and the writer drains + exits, but live connections
  /// keep their sockets (kShutdown acks through its own fd after this).
  void stop_writes();

  /// Blocks until everything enqueued so far has been published (tests and
  /// orderly shutdown use this).
  void drain();

  [[nodiscard]] const EpochStore& store() const noexcept { return store_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }

 private:
  void writer_loop();
  void writer_loop_body();
  void merge_and_publish();
  /// Handles one request frame; false = stop serving this connection.
  bool handle_frame(const Frame& f, int out_fd);
  /// Last epoch handed out by enqueue (0 before the first write).
  [[nodiscard]] std::uint64_t last_assigned() const;
  /// Joins connection threads that have signalled completion — accept-loop
  /// housekeeping, so a long-lived daemon does not accumulate one dead
  /// std::thread per connection ever served.
  void reap_finished_connections();
  /// Joins every remaining connection thread (shutdown paths only).
  void join_all_connections();

  ServerConfig cfg_;
  std::unique_ptr<shard::GrbPipelinedEngine> q1_;
  std::unique_ptr<shard::GrbPipelinedEngine> q2_;
  EpochStore store_;

  // Ingest queue: connection threads push, the writer pops.
  mutable std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  std::deque<sm::ChangeSet> queue_;
  std::uint64_t next_epoch_ = 1;  // snapshot 0 is the initial evaluation
  /// Written under ingest_mu_ (so the writer's cv predicate is race-free);
  /// atomic so serve_unix can also read it under conns_mu_ alone.
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> applied_{0};
  /// Set (before request_shutdown) when the writer thread died in its catch
  /// block; drain() polls it so it cannot wait forever on epochs the dead
  /// writer will never publish.
  std::atomic<bool> writer_failed_{false};

  // Unix-socket transport bookkeeping. Connection threads are keyed by a
  // monotonic id; a thread pushes its id to finished_conn_ids_ on exit and
  // the accept loop joins + erases it, so the map tracks live connections
  // rather than growing for the life of the daemon.
  std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::uint64_t> finished_conn_ids_;
  std::uint64_t next_conn_id_ = 0;
  std::vector<int> live_fds_;
  int listen_fd_ = -1;

  /// Telemetry provider id for the "daemon.*" snapshot entries (registered
  /// in the constructor, removed first thing in the destructor).
  std::uint64_t telemetry_provider_ = 0;

  std::thread writer_;
};

}  // namespace grbd
