#include "daemon/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "harness/engine.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace grbd {

using shard::GrbPipelinedEngine;

namespace telemetry = grbsm::telemetry;

namespace {

void append_value(
    std::vector<std::pair<std::string, telemetry::MetricValue>>& out,
    std::string name, telemetry::MetricKind kind, std::uint64_t v) {
  telemetry::MetricValue m;
  m.kind = kind;
  m.value = v;
  out.emplace_back(std::move(name), m);
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(cfg),
      q1_(std::make_unique<GrbPipelinedEngine>(
          harness::Query::kQ1, GrbPipelinedEngine::Mode::kIncremental,
          cfg.shards, cfg.depth)),
      q2_(std::make_unique<GrbPipelinedEngine>(
          harness::Query::kQ2, GrbPipelinedEngine::Mode::kIncremental,
          cfg.shards, cfg.depth)),
      store_(cfg.retain) {
  // Surface the service-level numbers in every registry snapshot (and thus
  // every kMetrics frame) under "daemon.*". daemon.in_flight (enqueued minus
  // published) is the apply-to-visible backlog in change sets.
  telemetry_provider_ = telemetry::Registry::instance().add_provider(
      [this](std::vector<std::pair<std::string, telemetry::MetricValue>>&
                 out) {
        std::uint64_t latest = 0;
        (void)store_.latest_epoch(latest);
        const std::uint64_t assigned = last_assigned();
        append_value(out, "daemon.latest_epoch",
                     telemetry::MetricKind::kGauge, latest);
        append_value(out, "daemon.applied", telemetry::MetricKind::kCounter,
                     applied_.load(std::memory_order_relaxed));
        append_value(out, "daemon.queries", telemetry::MetricKind::kCounter,
                     queries_.load(std::memory_order_relaxed));
        append_value(out, "daemon.retained", telemetry::MetricKind::kGauge,
                     store_.size());
        append_value(out, "daemon.in_flight", telemetry::MetricKind::kGauge,
                     assigned > latest ? assigned - latest : 0);
      });
}

Server::~Server() {
  // Deregister first: remove_provider blocks until any in-flight snapshot
  // finished calling the lambda, which reads members destroyed below.
  telemetry::Registry::instance().remove_provider(telemetry_provider_);
  request_shutdown();
  if (writer_.joinable()) writer_.join();
  join_all_connections();
}

void Server::join_all_connections() {
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conn_threads_.size());
    for (auto& [id, t] : conn_threads_) conns.push_back(std::move(t));
    conn_threads_.clear();
    finished_conn_ids_.clear();
  }
  for (std::thread& t : conns) t.join();
}

void Server::reap_finished_connections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::uint64_t id : finished_conn_ids_) {
      const auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;  // already joined in bulk
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conn_ids_.clear();
  }
  // Join outside the lock: a finishing thread may still be between its
  // finished_conn_ids_ push and its last instruction.
  for (std::thread& t : done) t.join();
}

void Server::load(const sm::SocialGraph& g) {
  q1_->load(g);
  q2_->load(g);
  Snapshot s0;
  s0.epoch = 0;
  s0.q1 = q1_->initial();
  s0.q2 = q2_->initial();
  store_.publish(std::move(s0));
  writer_ = std::thread(&Server::writer_loop, this);
}

std::uint64_t Server::enqueue(sm::ChangeSet cs) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (stop_.load(std::memory_order_relaxed)) return 0;
  queue_.push_back(std::move(cs));
  const std::uint64_t epoch = next_epoch_++;
  ingest_cv_.notify_one();
  return epoch;
}

std::uint64_t Server::last_assigned() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return next_epoch_ - 1;
}

void Server::writer_loop() {
  try {
    writer_loop_body();
  } catch (const std::exception& e) {
    // An engine failure (e.g. a semantically invalid change set poisoning
    // the pipeline) must not std::terminate the daemon; stop ingesting and
    // let pinned readers drain what was published.
    std::fprintf(stderr, "grb_daemon: writer failed: %s\n", e.what());
    writer_failed_.store(true, std::memory_order_release);
    request_shutdown();
  }
}

void Server::writer_loop_body() {
  // Single consumer; the engines are touched by this thread only.
  for (;;) {
    sm::ChangeSet cs;
    bool have_cs = false;
    {
      std::unique_lock<std::mutex> lock(ingest_mu_);
      if (q1_->in_flight() == 0) {
        // Nothing to merge — sleep until there is work or we are told to
        // stop. (in_flight() reads this thread's own counters; safe.)
        ingest_cv_.wait(lock, [this] {
          return stop_.load(std::memory_order_relaxed) || !queue_.empty();
        });
        if (queue_.empty()) return;  // stop_ with a drained queue
      }
      if (!queue_.empty() && q1_->in_flight() < cfg_.depth) {
        cs = std::move(queue_.front());
        queue_.pop_front();
        have_cs = true;
      }
    }
    if (have_cs) {
      // Window open: keep it full before spending time merging.
      q1_->submit(cs);
      q2_->submit(cs);
      continue;
    }
    // Window full, or the queue idled with epochs still in flight.
    merge_and_publish();
  }
}

void Server::merge_and_publish() {
  GrbPipelinedEngine::Merged m1 = q1_->merge_one();
  GrbPipelinedEngine::Merged m2 = q2_->merge_one();
  Snapshot snap;
  snap.epoch = m1.epoch + 1;  // engine epochs are 0-based, snapshot 0 = load
  snap.q1 = std::move(m1.answer);
  snap.q2 = std::move(m2.answer);
  // Count before publishing: the release store inside publish() makes the
  // counter visible to any reader that can already see the snapshot.
  applied_.fetch_add(1, std::memory_order_relaxed);
  store_.publish(std::move(snap));
}

void Server::drain() {
  const std::uint64_t target = last_assigned();
  if (target == 0) return;
  // Generous: drain is only bounded by merge throughput, not clients.
  while (!store_.wait_published(target, std::chrono::milliseconds(500))) {
    std::uint64_t latest = 0;
    (void)store_.latest_epoch(latest);
    if (latest >= target) break;
    // A crashed writer publishes nothing more: epochs it assigned but never
    // merged will neither publish nor evict, so waiting on them would spin
    // forever. (Checked after the wait so a writer that failed *after*
    // publishing `target` still exits through the success path.)
    if (writer_failed_.load(std::memory_order_acquire)) break;
  }
}

void Server::stop_writes() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  ingest_cv_.notify_all();
}

void Server::request_shutdown() {
  stop_writes();
  // Idempotent without an early-out: listen_fd_ goes -1 after the close,
  // and a second SHUT_RDWR on a live fd is harmless.
  std::lock_guard<std::mutex> lock(conns_mu_);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
}

bool Server::handle_frame(const Frame& f, int out_fd) {
  switch (f.type) {
    case MsgType::kHello: {
      PayloadReader in(f.payload);
      in.expect_done();
      PayloadWriter out;
      std::uint64_t latest = 0;
      (void)store_.latest_epoch(latest);
      out.u64(latest);
      out.u32(static_cast<std::uint32_t>(cfg_.shards));
      out.u32(static_cast<std::uint32_t>(cfg_.depth));
      out.u32(static_cast<std::uint32_t>(cfg_.retain));
      return write_frame(out_fd, MsgType::kHelloOk, out.data());
    }
    case MsgType::kApply: {
      PayloadReader in(f.payload);
      sm::ChangeSet cs = decode_change_set(in);
      in.expect_done();
      const std::uint64_t epoch = enqueue(std::move(cs));
      if (epoch == 0) {
        return write_error(out_fd, ErrorCode::kShuttingDown,
                           "server is shutting down");
      }
      PayloadWriter out;
      out.u64(epoch);
      return write_frame(out_fd, MsgType::kApplied, out.data());
    }
    case MsgType::kQuery: {
      PayloadReader in(f.payload);
      const std::uint8_t which = in.u8();
      const std::uint64_t pin = in.u64();
      in.expect_done();
      if (which != kQueryQ1 && which != kQueryQ2) {
        throw ProtocolError("unknown query selector " +
                            std::to_string(which));
      }
      // Reader-side span: covers pin + serve, re-labelled with the pinned
      // epoch once known (error paths close it at epoch 0, which the trace
      // checker exempts).
      static telemetry::Histogram& answer_hist =
          telemetry::Registry::instance().histogram("epoch.answer_us");
      telemetry::SpanScope answer_span("answer", 0, &answer_hist);
      SnapshotPtr snap;  // the pin: one locked pointer copy (lock-light,
                         // see epoch_store.hpp); never waits out a merge
      if (pin == kLatestEpoch) {
        snap = store_.latest();
      } else {
        snap = store_.wait_published(pin, cfg_.query_wait);
        if (!snap) {
          return write_error(
              out_fd,
              store_.evicted(pin) ? ErrorCode::kEvicted : ErrorCode::kNotReady,
              "epoch " + std::to_string(pin) +
                  (store_.evicted(pin) ? " left the retention window"
                                       : " was not published in time"));
        }
      }
      answer_span.set_epoch(snap->epoch);
      queries_.fetch_add(1, std::memory_order_relaxed);
      PayloadWriter out;
      out.u64(snap->epoch);
      out.str(which == kQueryQ1 ? snap->q1 : snap->q2);
      return write_frame(out_fd, MsgType::kAnswer, out.data());
    }
    case MsgType::kMetrics: {
      PayloadReader in(f.payload);
      in.expect_done();
      // One coherent snapshot per response (it never reads a half-applied
      // batch, so prune.* keeps scanned + skipped == total), with every
      // registered name: prune.*, daemon.*, epoch.*_us.
      const std::vector<std::uint8_t> blob =
          telemetry::serialize(telemetry::Registry::instance().snapshot());
      PayloadWriter out;
      out.bytes(blob.data(), blob.size());
      return write_frame(out_fd, MsgType::kMetricsOk, out.data());
    }
    case MsgType::kShutdown: {
      // Refuse new writes *before* acking: a client that received kOk must
      // never see a later enqueue succeed. The fd teardown stays after the
      // ack — request_shutdown() SHUT_RDWRs this very connection, so kOk
      // could not be delivered the other way around.
      stop_writes();
      (void)write_frame(out_fd, MsgType::kOk);
      request_shutdown();
      return false;
    }
    default:
      return write_error(out_fd, ErrorCode::kBadRequest,
                         "unknown message type " +
                             std::to_string(static_cast<unsigned>(f.type)));
  }
}

void Server::serve_connection(int in_fd, int out_fd) {
  for (;;) {
    std::optional<Frame> f;
    try {
      f = read_frame(in_fd, cfg_.max_frame);
    } catch (const ProtocolError& e) {
      // Framing is lost (truncation / oversize) — tell the peer if it is
      // still there, then drop the connection. The daemon itself lives on.
      (void)write_error(out_fd, ErrorCode::kBadRequest, e.what());
      return;
    }
    if (!f) return;  // clean EOF between frames
    try {
      if (!handle_frame(*f, out_fd)) return;
    } catch (const ProtocolError& e) {
      // Bad payload inside an intact frame: recoverable, keep serving.
      if (!write_error(out_fd, ErrorCode::kBadRequest, e.what())) return;
    } catch (const std::exception& e) {
      // Last resort: no single request may take the daemon down
      // (an escaping exception here would std::terminate the process).
      // Report, then drop this connection only.
      (void)write_error(out_fd, ErrorCode::kInternal, e.what());
      return;
    }
  }
}

int Server::serve_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);  // shutdown raced ahead of the bind
      return 0;
    }
    listen_fd_ = fd;
  }
  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd was shut down — time to leave
    }
    reap_finished_connections();
    std::lock_guard<std::mutex> lock(conns_mu_);
    live_fds_.push_back(conn);
    const std::uint64_t id = next_conn_id_++;
    conn_threads_.emplace(id, std::thread([this, conn, id] {
      serve_connection(conn, conn);
      {
        // De-list before close so request_shutdown never touches a
        // recycled descriptor number.
        std::lock_guard<std::mutex> inner(conns_mu_);
        live_fds_.erase(std::find(live_fds_.begin(), live_fds_.end(), conn));
        finished_conn_ids_.push_back(id);
      }
      ::close(conn);
    }));
  }
  join_all_connections();
  // Publish every epoch clients were promised before the process exits.
  drain();
  return 0;
}

}  // namespace grbd
