// Context-owned workspace arena: size-bucketed, thread-team-aware buffer
// pools that let every kernel acquire its dense scratch, per-thread staging
// vectors and output storage without touching the system allocator on the
// steady state. The paper's headline loop (Fig. 5) re-runs the same kernels
// on near-identical operand shapes once per change set; SuiteSparse:GraphBLAS
// amortises exactly this malloc/page-fault tax with cached internal
// workspaces, and this arena plays the same role here.
//
// Design:
//   * Buffers are std::vector<T>s kept in power-of-two capacity classes
//     (size buckets). A lease request of n elements is served by any cached
//     buffer of the request's class or the next two classes up, so a buffer
//     is never wasted on a request orders of magnitude smaller.
//   * The pool is sharded by thread: each OS thread leases from and donates
//     to its own shard (one uncontended mutex), so per-thread scratch
//     acquired inside OpenMP regions (mxm SPAs, staged builders) never
//     serialises on a global lock. The OpenMP runtime reuses its thread
//     pool across parallel regions, so shards stay warm across kernel
//     calls. On a local miss the other shards are probed (work-stealing)
//     before new memory is allocated — only a pool-wide miss allocates.
//   * Lease<T> is an RAII handle: the buffer returns to the pool when the
//     lease dies. detach() severs the pool link and hands the vector out,
//     which is how builders transfer finished CSR arrays into a Matrix;
//     grb::recycle(std::move(m)) donates them back when the object retires,
//     closing the capacity-reuse cycle.
//   * TeamLease<T> bundles one buffer per thread of a team (per-thread
//     accumulators, staging buffers), acquired before the parallel region
//     so the region itself stays lock-free.
//
// Acquired buffers always arrive clear()ed (size 0, capacity >= request);
// kernels reinitialise them exactly as they would a fresh vector (resize
// zero-fills, assign overwrites), so recycled memory can never leak stale
// values into results and the parallel-equivalence guarantees are
// unaffected by the arena.
#pragma once

#ifdef GRB_WORKSPACE_TRACE_MISSES
#include <cstdio>
#ifdef GRB_WORKSPACE_TRACE_BACKTRACE
#include <execinfo.h>
#endif
#endif

#include "grb/detail/check.hpp"

#if defined(GRB_WORKSPACE_TRACE_MISSES) || GRB_CHECKS_ENABLED
#include <typeinfo>
#endif

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grb/types.hpp"

namespace grb {

/// Arena instrumentation, published as the registry's arena.* entries and
/// read back with grb::arena_stats_of. Counters are monotonic (diff two
/// snapshots for an interval); gauges describe the pool right now.
struct WorkspaceStats {
  // Counters.
  std::uint64_t hits = 0;        ///< leases served from the caller's shard
  std::uint64_t steals = 0;      ///< leases served from another shard
  std::uint64_t misses = 0;      ///< leases that had to allocate fresh memory
  std::uint64_t bytes_leased = 0;  ///< total requested bytes across leases
  std::uint64_t donations = 0;   ///< buffers returned/donated to the pool
  std::uint64_t drops = 0;       ///< donations rejected (bucket full / tiny)
  /// High-watermark splits: leases where the only cached candidates sat
  /// above the oversize watermark, so the big buffer was kept whole and the
  /// request took the (also counted) miss path instead. The freshly
  /// allocated right-sized buffer populates the small class on donation —
  /// the malloc-backed equivalent of splitting off the tail.
  std::uint64_t splits = 0;
  /// Shrink-on-detach events: a pool-origin buffer left the arena far
  /// oversized for its contents, so its storage was swapped for a
  /// right-sized lease and the big buffer was donated back instead of
  /// staying pinned inside a small long-lived container.
  std::uint64_t shrinks = 0;
  // Gauges.
  std::uint64_t buffers_cached = 0;
  std::uint64_t bytes_cached = 0;

  [[nodiscard]] std::uint64_t leases() const noexcept {
    return hits + steals + misses;
  }
  /// Fraction of leases served from cache (1.0 when there were no leases —
  /// an idle domain has nothing to miss).
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t l = leases();
    return l == 0 ? 1.0 : static_cast<double>(l - misses) /
                              static_cast<double>(l);
  }
  friend bool operator==(const WorkspaceStats&,
                         const WorkspaceStats&) = default;
};

namespace detail {

class Workspace;

/// Stats-attribution domain of the calling thread (-1 = unattributed).
/// Engine shards set a domain around their per-shard work so the arena can
/// report per-shard hit rates; kernels never touch it. Thread-local: with
/// nested OpenMP regions disabled (the default), everything a shard's
/// thread leases is attributed to that shard.
inline thread_local int tls_stats_domain = -1;

/// RAII domain scope. Domains outside [0, Workspace::kMaxDomains) fold into
/// the unattributed bucket (global counters only).
class ScopedStatsDomain {
 public:
  explicit ScopedStatsDomain(int domain) noexcept
      : saved_(tls_stats_domain) {
    tls_stats_domain = domain;
  }
  ~ScopedStatsDomain() { tls_stats_domain = saved_; }
  ScopedStatsDomain(const ScopedStatsDomain&) = delete;
  ScopedStatsDomain& operator=(const ScopedStatsDomain&) = delete;

 private:
  int saved_;
};

/// RAII handle on a pooled buffer. Move-only; returns the buffer to the
/// workspace on destruction unless detach()ed.
///
/// Debug builds track ownership (see check.hpp): the lease records its
/// owning thread and size class on acquisition, and double-detach,
/// use-after-detach and cross-thread detach abort with that context in the
/// message. Release builds compile the tracking out entirely.
template <typename T>
class Lease {
 public:
  Lease() = default;
  Lease(Workspace* ws, std::vector<T>&& buf) noexcept
      : ws_(ws), buf_(std::move(buf)) {}
  Lease(Lease&& o) noexcept : ws_(o.ws_), buf_(std::move(o.buf_)) {
    o.ws_ = nullptr;
#if GRB_CHECKS_ENABLED
    token_ = o.token_;
    owner_ = o.owner_;
    cls_ = o.cls_;
    detached_ = o.detached_;
    o.token_ = 0;
    o.detached_ = false;
#endif
  }
  Lease& operator=(Lease&& o) noexcept {
    if (this != &o) {
      release();
      ws_ = o.ws_;
      buf_ = std::move(o.buf_);
      o.ws_ = nullptr;
#if GRB_CHECKS_ENABLED
      token_ = o.token_;
      owner_ = o.owner_;
      cls_ = o.cls_;
      detached_ = o.detached_;
      o.token_ = 0;
      o.detached_ = false;
#endif
    }
    return *this;
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() { release(); }

  [[nodiscard]] std::vector<T>& get() noexcept {
    debug_check_usable();
    return buf_;
  }
  [[nodiscard]] const std::vector<T>& get() const noexcept {
    debug_check_usable();
    return buf_;
  }
  std::vector<T>& operator*() noexcept {
    debug_check_usable();
    return buf_;
  }
  const std::vector<T>& operator*() const noexcept {
    debug_check_usable();
    return buf_;
  }
  std::vector<T>* operator->() noexcept {
    debug_check_usable();
    return &buf_;
  }
  const std::vector<T>* operator->() const noexcept {
    debug_check_usable();
    return &buf_;
  }

  /// Hands the buffer out of the arena (ownership moves to the caller; the
  /// lease becomes empty and returns nothing on destruction). Containers
  /// built from detached buffers re-enter the pool via grb::recycle(). A
  /// buffer leaving far oversized for its contents is trimmed on the way
  /// out (Workspace::detach_trimmed), so detached storage cannot pin a big
  /// pool buffer inside a small long-lived container.
  ///
  /// Debug builds enforce the detach discipline: detaching twice, or from a
  /// thread other than the one that leased the buffer, aborts.
  [[nodiscard]] std::vector<T> detach();  // defined after Workspace

 private:
  friend class Workspace;

  void release();  // defined after Workspace

#if GRB_CHECKS_ENABLED
  void debug_check_usable() const noexcept {
    if (detached_) {
      std::ostringstream os;
      os << "use-after-detach: lease buffer already detached (owner-thread="
         << thread_id_string(owner_) << " size-class=" << cls_ << ")";
      check_fail("Workspace::Lease", os.str().c_str());
    }
  }
#else
  void debug_check_usable() const noexcept {}
#endif

  Workspace* ws_ = nullptr;
  std::vector<T> buf_;
#if GRB_CHECKS_ENABLED
  std::uint64_t token_ = 0;
  std::thread::id owner_;
  int cls_ = 0;
  bool detached_ = false;
#endif
};

/// One pooled buffer per thread of a team, acquired up front so parallel
/// regions stay lock-free. buf(tid) is thread tid's buffer.
template <typename T>
class TeamLease {
 public:
  TeamLease() = default;
  explicit TeamLease(std::vector<Lease<T>>&& parts) noexcept
      : parts_(std::move(parts)) {}

  [[nodiscard]] std::size_t size() const noexcept { return parts_.size(); }
  [[nodiscard]] std::vector<T>& buf(std::size_t i) noexcept {
    return *parts_[i];
  }

 private:
  std::vector<Lease<T>> parts_;
};

class Workspace {
 public:
  /// Smallest element count worth pooling (donations below it are dropped).
  /// Callers that keep storage across moves — where a replaced buffer frees
  /// silently rather than recycling — should stay on plain allocation under
  /// this size so pool-origin buffers cannot leak out of the arena.
  static constexpr std::size_t kMinBuffer = 64;

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Acquires a buffer with capacity >= n elements, cleared. Prefers a
  /// close-fitting buffer from the calling thread's shard, then from the
  /// other shards (work-stealing); if no close fit exists anywhere, a
  /// larger cached buffer up to kOversizeClasses above the request is taken
  /// (buffers migrate to higher classes as they grow through push_back, so
  /// without this fallback the small classes would drain permanently).
  /// Buffers above that high watermark are kept whole for the big requests
  /// they fit: the lease takes the miss path instead (counted as a split as
  /// well as a miss), and the right-sized allocation replenishes the small
  /// class when it is donated back — the malloc-backed equivalent of
  /// returning the tail to its own class, amortised over one cycle.
  template <typename T>
  [[nodiscard]] Lease<T> lease(std::size_t n) {
    const int cls = size_class(n);
    const std::size_t home = current_shard();
    bool saw_oversize = false;
    for (const bool any_fit : {false, true}) {
      for (std::size_t probe = 0; probe < kShards; ++probe) {
        const std::size_t s = (home + probe) % kShards;
        if (auto buf = try_acquire<T>(shards_[s], cls, any_fit, saw_oversize)) {
          (probe == 0 ? hits_ : steals_)
              .fetch_add(1, std::memory_order_relaxed);
          bytes_leased_.fetch_add(n * sizeof(T), std::memory_order_relaxed);
          count_domain(probe == 0 ? DomainEvent::kHit : DomainEvent::kSteal,
                       n * sizeof(T));
          return make_lease<T>(std::move(*buf), cls, n);
        }
      }
    }
    if (saw_oversize) splits_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    bytes_leased_.fetch_add(n * sizeof(T), std::memory_order_relaxed);
    count_domain(DomainEvent::kMiss, n * sizeof(T));
#ifdef GRB_WORKSPACE_TRACE_MISSES
    // Miss forensics for arena regressions: every steady-state miss means
    // some container with pool-origin storage retired without grb::recycle.
    std::fprintf(stderr, "[workspace miss] type=%s n=%zu class=%d\n",
                 typeid(T).name(), n, cls);
#ifdef GRB_WORKSPACE_TRACE_BACKTRACE
    {
      void* fr[10];
      backtrace_symbols_fd(fr, backtrace(fr, 10), 2);
    }
#endif
#endif
    std::vector<T> fresh;
    fresh.reserve(std::size_t{1} << cls);
    return make_lease<T>(std::move(fresh), cls, n);
  }

  /// Acquires `team` buffers of capacity >= n each (per-thread scratch for a
  /// thread team). Re-leasing with a different team size reuses whatever the
  /// previous team donated and tops up the difference.
  template <typename T>
  [[nodiscard]] TeamLease<T> lease_team(std::size_t team, std::size_t n) {
    std::vector<Lease<T>> parts;
    parts.reserve(team);
    for (std::size_t t = 0; t < team; ++t) parts.push_back(lease<T>(n));
    return TeamLease<T>(std::move(parts));
  }

  /// Donates a buffer's capacity to the pool (the storage-recycling entry
  /// point: finished leases land here automatically, retired Matrix/Vector
  /// storage via grb::recycle). Tiny buffers and full buckets are dropped.
  template <typename T>
  void donate(std::vector<T>&& buf) {
    const std::size_t cap = buf.capacity();
    if (cap < (std::size_t{1} << kMinClass)) {
      if (cap != 0) drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf.clear();
    const int cls = floor_class(cap);
    Shard& sh = shards_[current_shard()];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto& bucket = pool_of<T>(sh).bucket[static_cast<std::size_t>(cls)];
    if (bucket.size() >= kMaxPerBucket ||
        sh.bytes_cached + cap * sizeof(T) > kMaxBytesPerShard) {
      drops_.fetch_add(1, std::memory_order_relaxed);
      return;  // buf frees on scope exit
    }
    sh.buffers_cached += 1;
    sh.bytes_cached += cap * sizeof(T);
    bucket.push_back(std::move(buf));
    donations_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Shrink-on-detach: a pool-origin buffer leaving the arena with capacity
  /// at or above the oversize watermark relative to its contents is swapped
  /// for a right-sized lease (contents copied — they are small by
  /// definition of the rule) and the big buffer is donated back, so it
  /// cannot stay pinned inside a small long-lived container. Non-trivially
  /// copyable element types pass through untrimmed.
  template <typename T>
  [[nodiscard]] std::vector<T> detach_trimmed(std::vector<T>&& buf) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      const std::size_t cap = buf.capacity();
      if (cap >= kMinBuffer &&
          floor_class(cap) >= size_class(buf.size()) + kOversizeClasses) {
        Lease<T> trimmed = lease<T>(buf.size());
        trimmed->assign(buf.begin(), buf.end());
        donate(std::move(buf));
        shrinks_.fetch_add(1, std::memory_order_relaxed);
        // The replacement sits under the watermark by construction, so this
        // recursion terminates after one level.
        return trimmed.detach();
      }
    }
    return std::move(buf);
  }

  [[nodiscard]] WorkspaceStats stats() const {
    WorkspaceStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.bytes_leased = bytes_leased_.load(std::memory_order_relaxed);
    s.donations = donations_.load(std::memory_order_relaxed);
    s.drops = drops_.load(std::memory_order_relaxed);
    s.splits = splits_.load(std::memory_order_relaxed);
    s.shrinks = shrinks_.load(std::memory_order_relaxed);
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      s.buffers_cached += sh.buffers_cached;
      s.bytes_cached += sh.bytes_cached;
    }
    return s;
  }

  /// Frees every cached buffer (outstanding leases are unaffected). Returns
  /// the number of bytes released back to the system. Debug builds report
  /// any lease still live at trim time — a leak-at-trim smell — to stderr
  /// (owning thread + size class per lease) without aborting: trimming
  /// around a deliberate long-lived lease is legal.
  std::size_t trim() {
    lease_registry_.report_leaks("trim_workspace()");
    std::size_t freed = 0;
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (auto& [type, pool] : sh.pools) {
        pool->trim();
      }
      freed += sh.bytes_cached;
      sh.bytes_cached = 0;
      sh.buffers_cached = 0;
    }
    return freed;
  }

  /// Oversize watermark, in capacity classes: the any_fit fallback refuses
  /// buffers >= 2^kOversizeClasses times the (rounded-up) request, and
  /// detach() trims pool-origin buffers that oversized relative to their
  /// contents. One constant for both rules keeps them consistent: the pool
  /// never hands out a buffer the detach path would immediately shrink.
  static constexpr int kOversizeClasses = 6;

  /// Stats-attribution domains (see ScopedStatsDomain). Sized for the
  /// engine-shard counts the benches sweep; higher domains fold into the
  /// unattributed bucket.
  static constexpr std::size_t kMaxDomains = 32;

  /// Debug lease ledger (see check.hpp). Lease handles unregister through
  /// this on release/detach; the misuse tests read live_leases().
  [[nodiscard]] LeaseRegistry& lease_registry() noexcept {
    return lease_registry_;
  }

  /// Number of currently outstanding leases (Debug builds; 0 in Release,
  /// where the ledger is compiled out).
  [[nodiscard]] std::size_t live_leases() const {
    return lease_registry_.live_count();
  }

  /// Per-domain lease counters for the given domain (independent of the
  /// calling thread's own ScopedStatsDomain scope).
  [[nodiscard]] WorkspaceStats domain_stats(std::size_t domain) const {
    WorkspaceStats s;
    if (domain >= kMaxDomains) return s;
    const DomainCounters& d = domains_[domain];
    s.hits = d.hits.load(std::memory_order_relaxed);
    s.steals = d.steals.load(std::memory_order_relaxed);
    s.misses = d.misses.load(std::memory_order_relaxed);
    s.bytes_leased = d.bytes_leased.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr int kNumClasses = 44;
  /// Smallest pooled capacity class: 2^6 = kMinBuffer elements. Requests
  /// round up to it; smaller donations are not worth tracking.
  static constexpr int kMinClass = 6;
  static_assert(std::size_t{1} << kMinClass == kMinBuffer);
  static constexpr std::size_t kMaxPerBucket = 256;
  /// Safety valve against unbounded cache growth in long-lived processes
  /// working through successively larger graphs: donations that would push
  /// a shard past this are dropped. Far above the working set of the
  /// bench/test workloads (tens of MiB at SF 512), so the zero-miss gates
  /// never see it; trim_workspace() reclaims everything on demand.
  static constexpr std::size_t kMaxBytesPerShard = std::size_t{512} << 20;

  struct PoolBase {
    virtual ~PoolBase() = default;
    virtual void trim() = 0;
  };

  template <typename T>
  struct Pool final : PoolBase {
    // bucket[c] holds buffers with capacity in [2^c, 2^(c+1)), so every
    // buffer in bucket c satisfies any request of class <= c.
    std::array<std::vector<std::vector<T>>, kNumClasses> bucket;
    void trim() override {
      for (auto& b : bucket) {
        b.clear();
        b.shrink_to_fit();
      }
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::type_index, std::unique_ptr<PoolBase>> pools;
    std::size_t buffers_cached = 0;
    std::size_t bytes_cached = 0;
  };

  /// Smallest class c with 2^c >= max(n, 2^kMinClass).
  static int size_class(std::size_t n) noexcept {
    const int c = n <= 1 ? 0 : static_cast<int>(std::bit_width(n - 1));
    return c < kMinClass ? kMinClass
                         : (c >= kNumClasses ? kNumClasses - 1 : c);
  }

  /// Largest class c with 2^c <= cap (the bucket a donated buffer lands in).
  static int floor_class(std::size_t cap) noexcept {
    const int c = static_cast<int>(std::bit_width(cap)) - 1;
    return c >= kNumClasses ? kNumClasses - 1 : c;
  }

  static std::size_t current_shard() noexcept {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  }

  /// Wraps a buffer in a Lease and, in Debug builds, registers it in the
  /// lease ledger (owning thread, size class, bytes, element type).
  template <typename T>
  Lease<T> make_lease(std::vector<T>&& buf, [[maybe_unused]] int cls,
                      [[maybe_unused]] std::size_t n) {
    Lease<T> l(this, std::move(buf));
#if GRB_CHECKS_ENABLED
    l.token_ = lease_registry_.on_lease(cls, n * sizeof(T), typeid(T).name());
    l.owner_ = std::this_thread::get_id();
    l.cls_ = cls;
#endif
    return l;
  }

  template <typename T>
  Pool<T>& pool_of(Shard& sh) {  // sh.mu must be held
    auto& slot = sh.pools[std::type_index(typeid(T))];
    if (!slot) slot = std::make_unique<Pool<T>>();
    return static_cast<Pool<T>&>(*slot);
  }

  /// Pops a buffer of class cls (close fit: up to two classes larger;
  /// any_fit: smallest available class under the oversize watermark) from
  /// one shard; nullopt when the shard has nothing suitable. On the any_fit
  /// pass, cached buffers found *above* the watermark set `saw_oversize`
  /// (the caller counts the lease as a split) but stay in the pool.
  template <typename T>
  std::optional<std::vector<T>> try_acquire(Shard& sh, int cls, bool any_fit,
                                            bool& saw_oversize) {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.pools.find(std::type_index(typeid(T)));
    if (it == sh.pools.end()) return std::nullopt;
    auto& pool = static_cast<Pool<T>&>(*it->second);
    const int want = any_fit ? cls + kOversizeClasses : cls + 3;
    const int hi = want > kNumClasses ? kNumClasses : want;
    for (int c = cls; c < hi; ++c) {
      auto& bucket = pool.bucket[static_cast<std::size_t>(c)];
      if (bucket.empty()) continue;
      std::vector<T> buf = std::move(bucket.back());
      bucket.pop_back();
      sh.buffers_cached -= 1;
      sh.bytes_cached -= buf.capacity() * sizeof(T);
      return buf;
    }
    if (any_fit && !saw_oversize) {
      for (int c = hi; c < kNumClasses; ++c) {
        if (!pool.bucket[static_cast<std::size_t>(c)].empty()) {
          saw_oversize = true;
          break;
        }
      }
    }
    return std::nullopt;
  }

  struct DomainCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> bytes_leased{0};
  };

  enum class DomainEvent { kHit, kSteal, kMiss };

  void count_domain(DomainEvent e, std::size_t bytes) noexcept {
    const int d = tls_stats_domain;
    if (d < 0 || d >= static_cast<int>(kMaxDomains)) return;
    DomainCounters& dc = domains_[static_cast<std::size_t>(d)];
    switch (e) {
      case DomainEvent::kHit:
        dc.hits.fetch_add(1, std::memory_order_relaxed);
        break;
      case DomainEvent::kSteal:
        dc.steals.fetch_add(1, std::memory_order_relaxed);
        break;
      case DomainEvent::kMiss:
        dc.misses.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    dc.bytes_leased.fetch_add(bytes, std::memory_order_relaxed);
  }

  std::array<Shard, kShards> shards_;
  std::array<DomainCounters, kMaxDomains> domains_;
  LeaseRegistry lease_registry_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_leased_{0};
  std::atomic<std::uint64_t> donations_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> splits_{0};
  std::atomic<std::uint64_t> shrinks_{0};
};

template <typename T>
void Lease<T>::release() {
  if (ws_ != nullptr) {
#if GRB_CHECKS_ENABLED
    ws_->lease_registry().on_release(token_);
#endif
    ws_->donate(std::move(buf_));
    ws_ = nullptr;
  }
}

template <typename T>
std::vector<T> Lease<T>::detach() {
#if GRB_CHECKS_ENABLED
  if (detached_) {
    std::ostringstream os;
    os << "double-detach: lease already detached (owner-thread="
       << thread_id_string(owner_) << " size-class=" << cls_ << ")";
    check_fail("Workspace::Lease", os.str().c_str());
  }
  if (ws_ != nullptr && owner_ != std::this_thread::get_id()) {
    std::ostringstream os;
    os << "cross-thread detach: lease owned by thread "
       << thread_id_string(owner_) << " detached by thread "
       << thread_id_string(std::this_thread::get_id())
       << " (size-class=" << cls_ << ")";
    check_fail("Workspace::Lease", os.str().c_str());
  }
  detached_ = true;
#endif
  if (ws_ == nullptr) return std::move(buf_);
  Workspace* ws = ws_;
  ws_ = nullptr;
#if GRB_CHECKS_ENABLED
  ws->lease_registry().on_release(token_);
#endif
  return ws->detach_trimmed(std::move(buf_));
}

/// The process-wide arena owned by grb::Context (defined in context.cpp).
[[nodiscard]] Workspace& workspace() noexcept;

}  // namespace detail
}  // namespace grb
