// Debug-mode concurrency-correctness instrumentation. Two families of
// checks, both compiled out in Release (NDEBUG) builds so the steady-state
// hot paths carry zero overhead:
//
//   * OverlapChecker — a chunk-grid write-overlap detector for the parallel
//     drivers (parallel_for / parallel_tasks / for_each_shard): each worker
//     claims its output range [lo, hi) before writing and two live
//     overlapping claims abort, which catches a mis-derived grid (two
//     workers handed the same output range) the instant it happens instead
//     of as a corrupted result three kernels later.
//   * ReentrancyGuard — epoch-counting scope guard for externally-serial
//     entry points (GrbState::apply_change_set and the sharded fan-out):
//     overlapping scopes, whether same-thread reentrancy or a second thread,
//     abort with both scope names.
//
// The checks deliberately use plain mutexes/atomics rather than anything
// clever: they run only in Debug builds, and their own synchronisation must
// be obvious enough that TSan never has anything to say about the checker.
//
// Define GRB_FORCE_CHECKS to keep the machinery alive in optimised builds
// (used by the instrumented-Release CI lane candidates; not the default).
#pragma once

#if !defined(NDEBUG) || defined(GRB_FORCE_CHECKS)
#define GRB_CHECKS_ENABLED 1
#else
#define GRB_CHECKS_ENABLED 0
#endif

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if GRB_CHECKS_ENABLED
#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#endif

// ThreadSanitizer happens-before annotations for the OpenMP fork/join and
// barrier points in parallel.hpp. GCC's libgomp synchronises its teams with
// futexes TSan cannot see, so without these edges every correctly-joined
// parallel region would be reported as racing with the serial code around
// it. The annotations mirror the *real* synchronisation exactly — release
// before a physical sync point, acquire after it — so TSan keeps full
// visibility of genuine intra-region races; nothing inside a region is
// blessed. Because the repo lint confines every `#pragma omp` to
// parallel.hpp, annotating its handful of drivers covers the whole library.
#if defined(__SANITIZE_THREAD__)
#define GRB_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GRB_TSAN_ENABLED 1
#endif
#endif
#ifndef GRB_TSAN_ENABLED
#define GRB_TSAN_ENABLED 0
#endif

#if GRB_TSAN_ENABLED
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#define GRB_TSAN_RELEASE(addr) \
  __tsan_release(const_cast<void*>(static_cast<const void*>(addr)))
#define GRB_TSAN_ACQUIRE(addr) \
  __tsan_acquire(const_cast<void*>(static_cast<const void*>(addr)))
#else
#define GRB_TSAN_RELEASE(addr) static_cast<void>(addr)
#define GRB_TSAN_ACQUIRE(addr) static_cast<void>(addr)
#endif

namespace grb::detail {

/// Fatal check failure: one-line report to stderr, then abort. The "[grb-check]"
/// prefix is what the death tests (and humans grepping CI logs) match on.
[[noreturn]] inline void check_fail(const char* what, const char* detail) {
  std::fprintf(stderr, "[grb-check] FATAL %s: %s\n", what, detail);
  std::fflush(stderr);
  std::abort();
}

#if GRB_CHECKS_ENABLED

/// Renders a thread id for failure messages (std::thread::id has no
/// to_string; the ostream form is stable enough for forensics).
inline std::string thread_id_string(std::thread::id id) {
  std::ostringstream os;
  os << id;
  return os.str();
}

/// Chunk-grid write-overlap detector. One checker per parallel driver
/// invocation (stack-allocated, shared by the team); each worker claims the
/// output range it is about to write. Two live claims that overlap — from
/// any pair of threads, or a grid that double-covers a range on one thread —
/// abort with both ranges. Claims are RAII and release on scope exit, so
/// the live set never exceeds the team size and the O(team) overlap scan
/// stays trivial.
class OverlapChecker {
 public:
  explicit OverlapChecker(const char* what) noexcept : what_(what) {}
  OverlapChecker(const OverlapChecker&) = delete;
  OverlapChecker& operator=(const OverlapChecker&) = delete;

  class Claim {
   public:
    Claim() = default;
    Claim(OverlapChecker* oc, std::size_t slot) noexcept
        : oc_(oc), slot_(slot) {}
    Claim(Claim&& o) noexcept : oc_(o.oc_), slot_(o.slot_) {
      o.oc_ = nullptr;
    }
    Claim& operator=(Claim&& o) noexcept {
      if (this != &o) {
        release();
        oc_ = o.oc_;
        slot_ = o.slot_;
        o.oc_ = nullptr;
      }
      return *this;
    }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim() { release(); }

   private:
    void release() noexcept {
      if (oc_ != nullptr) {
        oc_->release_slot(slot_);
        oc_ = nullptr;
      }
    }
    OverlapChecker* oc_ = nullptr;
    std::size_t slot_ = 0;
  };

  /// Claims [lo, hi) for the calling worker. Empty ranges claim nothing.
  [[nodiscard]] Claim claim(std::uint64_t lo, std::uint64_t hi) {
    if (lo >= hi) return Claim{};
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Live& c : live_) {
      if (c.active && lo < c.hi && c.lo < hi) {
        std::ostringstream os;
        os << "overlapping chunk-grid writes in " << what_ << ": thread "
           << thread_id_string(std::this_thread::get_id()) << " claims ["
           << lo << ", " << hi << ") while thread "
           << thread_id_string(c.owner) << " holds [" << c.lo << ", " << c.hi
           << ")";
        check_fail("OverlapChecker", os.str().c_str());
      }
    }
    for (std::size_t s = 0; s < live_.size(); ++s) {
      if (!live_[s].active) {
        live_[s] = Live{lo, hi, std::this_thread::get_id(), true};
        return Claim{this, s};
      }
    }
    live_.push_back(Live{lo, hi, std::this_thread::get_id(), true});
    return Claim{this, live_.size() - 1};
  }

 private:
  struct Live {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::thread::id owner;
    bool active = false;
  };

  void release_slot(std::size_t slot) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    live_[slot].active = false;
  }

  const char* what_;
  std::mutex mu_;
  std::vector<Live> live_;
};

/// Epoch-counting reentrancy guard for entry points that must be externally
/// serialised (one apply at a time per state). The counter is even when
/// idle and odd while a scope is open; an enter that observes an odd value
/// means two overlapping scopes — same-thread reentrancy or a concurrent
/// caller — and aborts. epoch() (completed scope count) is the hook the
/// upcoming pipelined-ingestion work tags published answers with.
///
/// Copy/move produce a fresh, idle guard: the guard protects an *object's*
/// entry point, and a copied object starts with no apply in flight.
class ReentrancyGuard {
 public:
  ReentrancyGuard() = default;
  ReentrancyGuard(const ReentrancyGuard&) noexcept {}
  ReentrancyGuard& operator=(const ReentrancyGuard&) noexcept { return *this; }

  void enter(const char* what) {
    const std::uint64_t prev =
        state_.fetch_add(1, std::memory_order_acq_rel);
    if ((prev & 1u) != 0u) {
      std::ostringstream os;
      os << "reentrant/concurrent entry into " << what << " by thread "
         << thread_id_string(std::this_thread::get_id())
         << " (a previous entry is still in flight; epoch=" << (prev >> 1)
         << ")";
      check_fail("ReentrancyGuard", os.str().c_str());
    }
  }
  void exit() noexcept { state_.fetch_add(1, std::memory_order_acq_rel); }

  /// Number of completed scopes.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return state_.load(std::memory_order_acquire) >> 1;
  }

 private:
  std::atomic<std::uint64_t> state_{0};
};

class ReentrancyScope {
 public:
  ReentrancyScope(ReentrancyGuard& g, const char* what) : g_(g) {
    g_.enter(what);
  }
  ~ReentrancyScope() { g_.exit(); }
  ReentrancyScope(const ReentrancyScope&) = delete;
  ReentrancyScope& operator=(const ReentrancyScope&) = delete;

 private:
  ReentrancyGuard& g_;
};

#else  // !GRB_CHECKS_ENABLED — zero-size stand-ins, everything inlines away.

class OverlapChecker {
 public:
  explicit OverlapChecker(const char*) noexcept {}
  struct Claim {};
  [[nodiscard]] Claim claim(std::uint64_t, std::uint64_t) noexcept {
    return {};
  }
};

class ReentrancyGuard {
 public:
  void enter(const char*) noexcept {}
  void exit() noexcept {}
  [[nodiscard]] std::uint64_t epoch() const noexcept { return 0; }
};

class ReentrancyScope {
 public:
  ReentrancyScope(ReentrancyGuard&, const char*) noexcept {}
};

#endif  // GRB_CHECKS_ENABLED

}  // namespace grb::detail
