// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms under stable dotted names ("prune.blocks_skipped",
// "daemon.reads", "epoch.merge_us", ...). This is the one sensor
// surface every subsystem reports through — the daemon's kMetrics frame, the
// bench JSON breakdowns, and load_gen's server-side deltas all read the same
// snapshot (see README "Architecture: observability").
//
// Recording is relaxed-atomic and lock-free: Counter::add, Gauge::set and
// Histogram::record are safe from any thread and never take the registry
// mutex (metric objects have stable addresses for the life of the process,
// so call sites cache references). Registration (get-or-create by name) and
// snapshotting are mutex-serialized — they happen per subsystem-init or per
// stats request, not per sample.
//
// Coherence: single-metric updates are independent, but some families carry
// cross-counter invariants (prune counters promise scanned + skipped ==
// total on the wire). Writers of such families wrap their updates in a
// BatchScope, which holds the batch mutex that snapshot() also takes for
// its read loop — a snapshot can therefore never tear a batch, which is
// what lets the daemon serve invariant-checked stats from live counters.
//
// Lock order: mu_ (registration, providers) before batch_mu_ (batches).
// snapshot() takes them in that order, so code inside a BatchScope must not
// register a metric: resolve the metric references first, then open the
// batch and only add/set/record inside it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace grbsm::telemetry {

/// Fixed histogram layout: bucket 0 counts exact zeros; bucket i (1..62)
/// counts values in [2^(i-1), 2^i); bucket 63 is the overflow tail. The
/// layout is part of the kMetrics wire schema — do not change it without
/// bumping kMetricsSchemaVersion.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Version stamp leading every serialized registry snapshot.
inline constexpr std::uint32_t kMetricsSchemaVersion = 1;

/// Bucket index holding value v under the layout above.
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto b = static_cast<std::size_t>(64 - std::countl_zero(v));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket i (0 for buckets 0 and 1).
[[nodiscard]] constexpr std::uint64_t bucket_lo(std::size_t i) noexcept {
  return i <= 1 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Exclusive upper bound of bucket i (UINT64_MAX for the overflow tail).
[[nodiscard]] constexpr std::uint64_t bucket_hi(std::size_t i) noexcept {
  if (i == 0) return 1;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return std::uint64_t{1} << i;
}

/// Monotonic event count. Relaxed add — callers needing cross-counter
/// coherence with other metrics wrap their updates in Registry::BatchScope.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (buffers cached, epochs in flight, ...).
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Immutable copy of a histogram's state. Snapshots merge associatively
/// (shard-local histograms fold into one report) and subtract (interval
/// deltas between two stats polls), and interpolate percentiles: the true
/// quantile is bracketed by its bucket, so the estimate is exact to within
/// one power-of-two bucket width.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t sum = 0;  ///< total of recorded values (for mean())
  std::uint64_t max = 0;  ///< largest recorded value (caps the tail bucket)

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double mean() const noexcept;

  /// Value at quantile q in [0, 1], linearly interpolated inside the
  /// containing bucket (0 when empty).
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) noexcept;
  friend HistogramSnapshot operator+(HistogramSnapshot a,
                                     const HistogramSnapshot& b) noexcept {
    a += b;
    return a;
  }
  /// Interval delta: *this (the later poll) minus `earlier`. Saturates at
  /// zero bucket-wise, so a pair polled out of order (or across a daemon
  /// restart) cannot underflow.
  [[nodiscard]] HistogramSnapshot delta_since(
      const HistogramSnapshot& earlier) const noexcept;
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Log-bucketed latency/size histogram. record() is wait-free per bucket
/// (one relaxed fetch_add each on the bucket, sum, and a CAS-loop max), so
/// concurrent recorders never serialize.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v,
                                                std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// One named entry of a RegistrySnapshot.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counters and gauges
  HistogramSnapshot hist;   ///< histograms only
};

/// A coherent, name-sorted copy of every registered metric (plus provider
/// contributions). This is the unit of wire serialization (kMetrics) and of
/// delta computation in load_gen.
struct RegistrySnapshot {
  std::uint32_t schema_version = kMetricsSchemaVersion;
  std::vector<std::pair<std::string, MetricValue>> entries;

  [[nodiscard]] const MetricValue* find(std::string_view name) const noexcept;
  [[nodiscard]] std::uint64_t value_or(std::string_view name,
                                       std::uint64_t fallback) const noexcept;
  /// The named histogram, or nullptr when absent or not a histogram.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const noexcept;
  /// The activity since `earlier`: counters and histograms minus their
  /// earlier values (saturating, so an out-of-order pair reads as 0), gauges
  /// at their current level. Metrics new since `earlier` keep their value.
  [[nodiscard]] RegistrySnapshot delta_since(
      const RegistrySnapshot& earlier) const;
};

/// Wire codec for kMetrics payloads: [u32 version][u32 count] then per
/// entry [u8 kind][u32 name_len][name] and either [u64 value] or
/// [u64 sum][u64 max][u8 n_buckets][n_buckets x u64]. Little-endian, same
/// conventions as daemon/protocol.hpp.
[[nodiscard]] std::vector<std::uint8_t> serialize(const RegistrySnapshot& s);
/// Throws std::runtime_error on truncated or malformed input.
[[nodiscard]] RegistrySnapshot parse_snapshot(const std::uint8_t* data,
                                              std::size_t size);

class Registry {
 public:
  /// The process-wide registry (lazy, thread-safe).
  [[nodiscard]] static Registry& instance();

  /// Get-or-create by dotted name. The returned reference stays valid for
  /// the life of the process. Throws std::logic_error when the name already
  /// exists with a different kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Write-side section for multi-metric updates whose combination must
  /// never be observed half-applied (see file comment). Batches from
  /// different threads and snapshot()'s read loop serialize on one mutex;
  /// keep batches short and never register a metric inside one.
  class BatchScope {
   public:
    BatchScope();
    ~BatchScope();
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;
  };

  /// Snapshot providers contribute computed entries (e.g. the daemon's
  /// queue gauges) at snapshot time without owning registry metrics.
  /// They run under the registry mutex — never call back into the registry
  /// from one. remove_provider() blocks until no snapshot is mid-call, so
  /// a provider may safely capture objects it outlives the registry with.
  using Provider =
      std::function<void(std::vector<std::pair<std::string, MetricValue>>&)>;
  std::uint64_t add_provider(Provider p);
  void remove_provider(std::uint64_t id);

  /// One coherent copy of everything (batch-atomic, name-sorted).
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  Registry() = default;

  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;        ///< registration, providers, snapshot
  mutable std::mutex batch_mu_;  ///< BatchScope writers vs snapshot reads
  std::map<std::string, Entry> metrics_;
  std::map<std::uint64_t, Provider> providers_;
  std::uint64_t next_provider_id_ = 1;
};

}  // namespace grbsm::telemetry
