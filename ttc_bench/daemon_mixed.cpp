// daemon-mixed: grb_daemon --sf=16 --shards=2 --depth=2 behind its Unix
// socket, driven by this process over four connections:
//
//   writer   kApply open loop at 100 change sets/s;
//   prober   a pinned Q1 and a pinned Q2 read of every acknowledged epoch —
//            from the change set's scheduled send to the pinned read's
//            answer is its visibility latency;
//   readers  two, open loop at 100 reads/s each: Q1/Q2 50/50, half
//            "latest", half pinned at a Zipf(0.9) offset <= 16 behind the
//            newest epoch the reader has seen.
//
// Open-loop latencies run from the scheduled send time, so a stall also
// charges the requests queued behind it. A run is two such passes, each
// against a freshly started daemon replaying the same stream, and reports
// each epoch's better visibility latency of the two. Every answer is
// byte-checked against the NMF oracle of the same stream; the daemon
// generates the same initial graph from (sf, seed), and the change sets
// come from here.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "daemon/protocol.hpp"
#include "shard/router.hpp"
#include "support/rng.hpp"

namespace ttcb {

namespace {

using grbd::Frame;
using grbd::MsgType;
using grbd::PayloadReader;
using grbd::PayloadWriter;
using harness::Query;

constexpr unsigned kScaleFactor = 16;
constexpr std::size_t kShards = 2;
constexpr std::size_t kDepth = 2;
constexpr double kWriteRate = 100.0;  // change sets per second
constexpr double kReadRate = 100.0;   // reads per second per reader
constexpr int kReaders = 2;
constexpr std::size_t kMaxPinOffset = 16;
/// Load passes per run, each against a fresh daemon for half the run.
constexpr int kPasses = 2;
/// A backlog that rises by more than this many epochs from the first to the
/// last quarter of the run means the daemon did not keep up.
constexpr double kBacklogGrowthLimit = 8.0;

int connect_unix(const std::string& path) {
  const Clock::time_point deadline = after_s(Clock::now(), 30.0);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(),
                std::min(path.size() + 1, sizeof addr.sun_path));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// One request/response exchange.
Frame call(int fd, MsgType type, const std::vector<std::uint8_t>& payload) {
  if (!grbd::write_frame(fd, type, payload)) {
    throw grbd::ProtocolError("daemon closed the connection");
  }
  std::optional<Frame> f = grbd::read_frame(fd);
  if (!f) throw grbd::ProtocolError("EOF while awaiting a response");
  return *f;
}

Frame query(int fd, Query q, std::uint64_t pin) {
  PayloadWriter req;
  req.u8(q == Query::kQ1 ? grbd::kQueryQ1 : grbd::kQueryQ2);
  req.u64(pin);
  return call(fd, MsgType::kQuery, req.data());
}

telemetry::RegistrySnapshot fetch_metrics(int fd) {
  const Frame f = call(fd, MsgType::kMetrics, {});
  if (f.type != MsgType::kMetricsOk) {
    throw grbd::ProtocolError("kMetrics was refused");
  }
  return telemetry::parse_snapshot(f.payload.data(), f.payload.size());
}

/// A grb_daemon child process. The constructor returns once the daemon
/// printed its ready line; the destructor kills a daemon still running and
/// reaps it, so no run leaves one behind.
class Daemon {
 public:
  Daemon(std::string socket, unsigned sf, std::uint64_t seed,
         const std::string& trace)
      : socket_(std::move(socket)) {
    std::vector<std::string> args = {
        TTC_BENCH_DAEMON,
        "--socket=" + socket_,
        "--sf=" + std::to_string(sf),
        "--seed=" + std::to_string(seed),
        "--shards=" + std::to_string(kShards),
        "--depth=" + std::to_string(kDepth)};
    if (!trace.empty()) args.push_back("--trace=" + trace);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    const Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec. The daemon dies
      // with this process, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(pipefd[1], STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipefd[1]);
    if (pid_ < 0) {
      ::close(pipefd[0]);
      throw std::runtime_error("fork failed");
    }
    err_fd_ = pipefd[0];
    try {
      wait_ready();
    } catch (...) {
      // No destructor runs for a half-built object: stop the child here.
      ::kill(pid_, SIGKILL);
      reap();
      ::close(err_fd_);
      throw;
    }
    ready_s_ = seconds_since(t0);
    // Forward the rest of the daemon's log so its pipe never fills.
    drain_ = std::thread([fd = err_fd_] {
      char buf[4096];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof buf)) > 0) {
        (void)!::write(STDERR_FILENO, buf, static_cast<std::size_t>(n));
      }
    });
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
    if (drain_.joinable()) drain_.join();
    if (err_fd_ >= 0) ::close(err_fd_);
    ::unlink(socket_.c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] double ready_s() const noexcept { return ready_s_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  /// The daemon's peak resident memory so far, in MiB.
  [[nodiscard]] double peak_rss_mib() const {
    return ttcb::peak_rss_mib(std::to_string(pid_));
  }

  /// Sends kShutdown on `fd` and waits for the daemon to exit. True when it
  /// exited 0 (every promised epoch published, trace written).
  bool shutdown(int fd) {
    try {
      (void)call(fd, MsgType::kShutdown, {});
    } catch (const grbd::ProtocolError&) {
      // The daemon may close the connection right after its kOk.
    }
    return reap();
  }

 private:
  void wait_ready() {
    std::string log;
    char buf[1024];
    const Clock::time_point deadline = after_s(Clock::now(), 120.0);
    while (log.find("grb_daemon: ready") == std::string::npos) {
      pollfd p{err_fd_, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      const ssize_t n =
          left.count() > 0 && ::poll(&p, 1, static_cast<int>(left.count())) > 0
              ? ::read(err_fd_, buf, sizeof buf)
              : -1;
      if (n <= 0) {
        std::fputs(log.c_str(), stderr);
        throw std::runtime_error("grb_daemon did not become ready");
      }
      log.append(buf, static_cast<std::size_t>(n));
    }
    std::fputs(log.c_str(), stderr);
  }

  bool reap() {
    int status = 0;
    const bool ok = ::waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    pid_ = -1;
    return ok;
  }

  std::string socket_;
  pid_t pid_ = -1;
  int err_fd_ = -1;
  double ready_s_ = 0.0;
  std::thread drain_;
};

/// Thread-safe front of the run's Report, for the load threads.
class SharedReport {
 public:
  explicit SharedReport(Report& r) : r_(r) {}
  void attempt() {
    const std::lock_guard<std::mutex> lock(mu_);
    r_.attempt();
  }
  void failed_op(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu_);
    r_.failed_op(what);
  }
  void mismatch(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu_);
    r_.mismatch(what);
  }

 private:
  std::mutex mu_;
  Report& r_;
};

/// Checks one kQuery response against the oracle; returns the epoch it was
/// served from, or nullopt for an error response.
std::optional<std::uint64_t> check_answer(const Frame& f, Query q,
                                          const Oracle& oracle,
                                          SharedReport& r) {
  if (f.type != MsgType::kAnswer) {
    r.failed_op(std::string("kQuery ") + harness::query_name(q) +
                " answered with frame type " +
                std::to_string(static_cast<unsigned>(f.type)));
    return std::nullopt;
  }
  PayloadReader in(f.payload);
  const std::uint64_t epoch = in.u64();
  const std::string answer = in.rest();
  const std::vector<std::string>& want = oracle.of(q);
  if (epoch >= want.size() || answer != want[epoch]) {
    r.mismatch(std::string("daemon ") + harness::query_name(q) + " at epoch " +
               std::to_string(epoch) + ": '" + answer + "'");
  }
  return epoch;
}

/// What one load phase measured.
struct Load {
  /// Per query and epoch (index epoch - 1): scheduled send of the change
  /// set -> its pinned read answered; infinity where the read failed.
  std::vector<double> visible_ms[2];
  std::vector<double> read_ms;        ///< readers: scheduled send -> answer
  std::vector<double> ack_ms;         ///< kApply send -> kApplied
  std::vector<double> late_ms;        ///< actual send - scheduled send
  std::vector<double> backlog;        ///< acked - visible, at each write
  double span_s = 0.0;  ///< first scheduled write -> last probe answer
  std::size_t written = 0;
  RegistryDelta server;
  double daemon_rss_mib = 0.0;
};

/// Runs the writer, prober and readers against `d` for `seconds` (or until
/// the stream runs out), then shuts the daemon down.
Load drive(Daemon& d, const datagen::Dataset& ds, const Oracle& oracle,
           double seconds, double write_rate, std::uint64_t seed,
           Report& report) {
  SharedReport r(report);
  Load out;
  for (std::vector<double>& v : out.visible_ms) {
    v.assign(ds.changes.size(), std::numeric_limits<double>::infinity());
  }
  const int wfd = connect_unix(d.socket());
  if (wfd < 0) throw std::runtime_error("cannot connect to " + d.socket());
  out.server.before = fetch_metrics(wfd);

  const double write_s = std::min(
      seconds, static_cast<double>(ds.changes.size()) / write_rate);
  const Clock::time_point t0 = after_s(Clock::now(), 0.05);
  const Clock::time_point t_end = after_s(t0, write_s);

  std::mutex mu;  // guards `acked` and `writer_done`
  std::condition_variable cv;
  std::deque<std::pair<std::uint64_t, Clock::time_point>> acked;
  bool writer_done = false;
  std::atomic<std::uint64_t> visible{0};
  std::vector<double> reader_late[kReaders];
  std::vector<double> reader_ms[kReaders];
  Clock::time_point last_probe = t0;

  std::thread writer([&] {
    std::uint64_t assigned = 0;
    for (std::size_t k = 0; k < ds.changes.size(); ++k) {
      const Clock::time_point sched =
          after_s(t0, static_cast<double>(k) / write_rate);
      if (sched >= t_end) break;
      std::this_thread::sleep_until(sched);
      const Clock::time_point sent = Clock::now();
      out.late_ms.push_back(ms_between(sched, sent));
      r.attempt();
      try {
        const Frame f =
            call(wfd, MsgType::kApply, grbd::encode_change_set(ds.changes[k]));
        out.ack_ms.push_back(ms_since(sent));
        if (f.type != MsgType::kApplied) {
          r.failed_op("kApply refused");
          break;
        }
        PayloadReader in(f.payload);
        assigned = in.u64();
        if (assigned != k + 1) {
          r.mismatch("kApply " + std::to_string(k) + " got epoch " +
                     std::to_string(assigned));
        }
      } catch (const std::exception& e) {
        r.failed_op(std::string("writer: ") + e.what());
        break;
      }
      out.backlog.push_back(static_cast<double>(
          assigned - std::min(assigned, visible.load())));
      ++out.written;
      const std::lock_guard<std::mutex> lock(mu);
      acked.emplace_back(assigned, sched);
      cv.notify_one();
    }
    const std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
    cv.notify_one();
  });

  std::thread prober([&] {
    const int fd = connect_unix(d.socket());
    if (fd < 0) {
      r.failed_op("prober cannot connect");
      return;
    }
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return writer_done || !acked.empty(); });
      if (acked.empty()) break;
      const auto [epoch, sched] = acked.front();
      acked.pop_front();
      lock.unlock();
      // Alternate which query reads first; the second read trails the
      // first by one round trip.
      const Query order[2] = {epoch % 2 == 0 ? Query::kQ1 : Query::kQ2,
                              epoch % 2 == 0 ? Query::kQ2 : Query::kQ1};
      for (const Query q : order) {
        r.attempt();
        try {
          const Frame f = query(fd, q, epoch);
          const double ms = ms_since(sched);
          if (check_answer(f, q, oracle, r) && epoch >= 1 &&
              epoch <= ds.changes.size()) {
            out.visible_ms[q == Query::kQ1 ? 0 : 1][epoch - 1] = ms;
          }
        } catch (const std::exception& e) {
          r.failed_op(std::string("prober: ") + e.what());
        }
      }
      visible.store(epoch);
      last_probe = Clock::now();
    }
    ::close(fd);
  });

  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const int fd = connect_unix(d.socket());
      if (fd < 0) {
        r.failed_op("reader cannot connect");
        return;
      }
      grbsm::support::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
      const grbsm::support::ZipfSampler offset(kMaxPinOffset, 0.9);
      std::uint64_t seen_max = 0;
      // Readers interleave: reader i is offset by i / (kReaders * rate).
      const double phase = static_cast<double>(i) / (kReaders * kReadRate);
      for (std::size_t j = 0;; ++j) {
        const Clock::time_point sched =
            after_s(t0, phase + static_cast<double>(j) / kReadRate);
        if (sched >= t_end) break;
        std::this_thread::sleep_until(sched);
        reader_late[i].push_back(ms_since(sched));
        const Query q = rng.chance(0.5) ? Query::kQ1 : Query::kQ2;
        std::uint64_t pin = grbd::kLatestEpoch;
        if (rng.chance(0.5)) {
          const auto back = static_cast<std::uint64_t>(offset.sample(rng)) - 1;
          pin = seen_max > back ? seen_max - back : 0;
        }
        r.attempt();
        try {
          const Frame f = query(fd, q, pin);
          reader_ms[i].push_back(ms_since(sched));
          if (const auto epoch = check_answer(f, q, oracle, r)) {
            seen_max = std::max(seen_max, *epoch);
          }
        } catch (const std::exception& e) {
          r.failed_op(std::string("reader: ") + e.what());
          break;
        }
      }
      ::close(fd);
    });
  }

  writer.join();
  prober.join();
  for (std::thread& t : readers) t.join();
  for (int i = 0; i < kReaders; ++i) {
    out.read_ms.insert(out.read_ms.end(), reader_ms[i].begin(),
                       reader_ms[i].end());
    out.late_ms.insert(out.late_ms.end(), reader_late[i].begin(),
                       reader_late[i].end());
  }
  out.span_s = ms_between(t0, last_probe) * 1e-3;

  out.server.after = fetch_metrics(wfd);
  out.daemon_rss_mib = d.peak_rss_mib();
  if (!d.shutdown(wfd)) r.failed_op("grb_daemon did not exit cleanly");
  ::close(wfd);

  // Backlog growth: compare the first and last quarter of the write phase.
  const std::size_t quarter = out.backlog.size() / 4;
  if (quarter > 0) {
    const std::vector<double> head(out.backlog.begin(),
                                   out.backlog.begin() + quarter);
    const std::vector<double> tail(out.backlog.end() - quarter,
                                   out.backlog.end());
    if (mean(tail) > mean(head) + kBacklogGrowthLimit) {
      r.failed_op("backlog grew from " + std::to_string(mean(head)) + " to " +
                  std::to_string(mean(tail)) + " epochs");
    }
  }
  return out;
}

std::string socket_name(int k) {
  return "ttc_bench-" + std::to_string(::getpid()) + "-" + std::to_string(k) +
         ".sock";
}

/// Each epoch's best visibility latency over the passes, for one query;
/// epochs whose pinned reads all failed are left out.
std::vector<double> best_visible(const std::vector<Load>& loads, int q) {
  std::vector<double> best;
  for (std::size_t e = 0; e < loads.front().visible_ms[q].size(); ++e) {
    double b = std::numeric_limits<double>::infinity();
    for (const Load& l : loads) b = std::min(b, l.visible_ms[q][e]);
    if (std::isfinite(b)) best.push_back(b);
  }
  return best;
}

}  // namespace

void run_daemon_mixed(const Options& opt, Report& r) {
  const double write_rate = opt.toy ? 200.0 : kWriteRate;
  const double pass_s = opt.seconds / kPasses;
  StreamSpec spec;
  spec.sf = opt.toy ? 2 : kScaleFactor;
  spec.change_sets =
      opt.toy ? 60
              : static_cast<std::size_t>(std::ceil(write_rate * pass_s)) + 16;
  const Clock::time_point g0 = Clock::now();
  const datagen::Dataset ds = make_dataset(spec, opt.seed);
  const double generate_s = seconds_since(g0);
  const Oracle oracle = nmf_oracle(ds);
  int spawned = 0;
  const auto start = [&](const std::string& trace) {
    return std::make_unique<Daemon>(socket_name(spawned++), spec.sf, opt.seed,
                                    trace);
  };

  if (opt.trace_path.empty()) {
    // One start-up that is only timed, then one per load pass; setup_s is
    // the median of all of them.
    std::vector<double> ready;
    {
      const auto d = start("");
      ready.push_back(d->ready_s());
      const int fd = connect_unix(d->socket());
      if (fd < 0 || !d->shutdown(fd)) {
        r.failed_op("a set-up daemon did not shut down cleanly");
      }
      if (fd >= 0) ::close(fd);
    }
    std::vector<Load> loads;
    std::vector<double> rss;
    for (int k = 0; k < kPasses; ++k) {
      const auto d = start("");
      ready.push_back(d->ready_s());
      loads.push_back(drive(*d, ds, oracle, pass_s, write_rate, opt.seed, r));
      rss.push_back(loads.back().daemon_rss_mib);
    }
    for (const int q : {0, 1}) {
      const std::vector<double> v = best_visible(loads, q);
      std::vector<double> rate;
      for (const Load& l : loads) {
        rate.push_back(static_cast<double>(std::count_if(
                           l.visible_ms[q].begin(), l.visible_ms[q].end(),
                           [](double x) { return std::isfinite(x); })) /
                       l.span_s);
      }
      const std::string pre = q == 0 ? "q1" : "q2";
      r.metric(pre + "_update_p50_ms", quantile(v, 0.50));
      r.metric(pre + "_update_p99_ms", quantile(v, 0.99));
      r.metric(pre + "_cs_per_s", median(rate));
    }
    r.metric("setup_s", median(ready));
    r.metric("peak_rss_mb", median(rss));
    return;
  }

  // Traced run: an untraced reference pass, then the same load against a
  // daemon writing the trace. The layer numbers come from the reference;
  // the traced pass gives the overhead.
  std::vector<Load> base;
  {
    const auto d = start("");
    base.push_back(drive(*d, ds, oracle, pass_s, write_rate, opt.seed, r));
  }
  std::vector<Load> traced;
  {
    const auto d = start(opt.trace_path);
    traced.push_back(drive(*d, ds, oracle, pass_s, write_rate, opt.seed, r));
  }
  const auto pooled = [](const std::vector<Load>& loads) {
    std::vector<double> v = best_visible(loads, 0);
    const std::vector<double> q2 = best_visible(loads, 1);
    v.insert(v.end(), q2.begin(), q2.end());
    return v;
  };
  r.metric("trace.overhead_frac",
           median(pooled(traced)) / median(pooled(base)));
  r.metric("datagen.generate_s", generate_s);
  r.metric("model.edges_end", static_cast<double>(edges_at_end(ds)));
  r.metric("queries.delta_ops_per_cs", ops_per_change_set(ds));
  r.metric("nmf.q1_update_ms", oracle.q1_update_ms);
  r.metric("nmf.q2_update_ms", oracle.q2_update_ms);

  const Load& ref = base.front();
  report_registry_layers(ref.server, r);
  r.metric("shard.route_ms",
           ref.server.histogram("epoch.route_us").mean() * 1e-3);
  r.metric("shard.apply_ms",
           ref.server.histogram("epoch.apply_us").mean() * 1e-3);
  r.metric("shard.merge_ms",
           ref.server.histogram("epoch.merge_us").mean() * 1e-3);
  r.metric("shard.apply_skew", shard_apply_skew(ref.server, kShards));
  // The daemon's routing, redone here for the change sets it was sent.
  shard::ChangeSetRouter router{shard::Partitioner(kShards)};
  (void)router.split_graph(ds.initial);
  std::vector<std::uint64_t> ops(kShards, 0);
  for (std::size_t k = 0; k < ref.written; ++k) {
    const shard::RoutedChangeSet routed = router.route(ds.changes[k]);
    for (std::size_t s = 0; s < kShards; ++s) ops[s] += routed.parts[s].size();
  }
  const std::uint64_t ops_sum = ops[0] + ops[1];
  r.metric("shard.ops_max_share",
           ops_sum == 0 ? 0.0
                        : static_cast<double>(std::max(ops[0], ops[1])) /
                              static_cast<double>(ops_sum));

  r.metric("daemon.apply_ack_ms", median(ref.ack_ms));
  r.metric("daemon.read_p50_ms", quantile(ref.read_ms, 0.50));
  r.metric("daemon.read_p99_ms", quantile(ref.read_ms, 0.99));
  r.metric("daemon.gen_late_p99_ms", quantile(ref.late_ms, 0.99));
  r.metric("daemon.backlog_max",
           ref.backlog.empty()
               ? 0.0
               : *std::max_element(ref.backlog.begin(), ref.backlog.end()));
}

}  // namespace ttcb
