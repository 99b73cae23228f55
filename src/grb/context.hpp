// Global execution context: controls the number of OpenMP threads the grb
// kernels may use (GxB_set(GxB_NTHREADS, ...) equivalent) and owns the
// workspace arena that kernels lease their scratch and output storage from.
// The paper compares 1-thread and 8-thread configurations of the same
// binary; the benchmark harness flips the thread knob between runs, and the
// arena keeps the per-change-set incremental loop off the system allocator.
#pragma once

#include <cstddef>

#include "grb/detail/workspace.hpp"

namespace grbsm::telemetry {
struct RegistrySnapshot;
}

namespace grb {

/// Sets the maximum number of threads grb kernels use. Values < 1 reset to
/// the OpenMP default (all hardware threads).
void set_threads(int n) noexcept;

/// Current thread cap (>= 1).
int threads() noexcept;

/// True when an explicit cap is in force (set_threads with n >= 1), false
/// when the OpenMP default applies. Explicitly pinned counts are honoured
/// even above the visible processor count — the differential test harness
/// and the paper's fixed 1-vs-8-thread runs rely on it — while the default
/// is clamped to the processors available to this process.
bool threads_pinned() noexcept;

/// RAII guard: sets the thread cap for a scope and restores it after.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) noexcept;
  ~ThreadGuard();
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

 private:
  int saved_;
};

/// Process-wide execution context. Owns the workspace arena; thread-cap
/// state stays in the free functions above (they predate the class and are
/// kept for API stability — Context::threads() forwards to them).
class Context {
 public:
  /// The singleton. Construction is lazy and thread-safe; the arena lives
  /// as long as the process, so leases taken anywhere always have a home.
  [[nodiscard]] static Context& instance() noexcept;

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] detail::Workspace& workspace() noexcept { return workspace_; }

  /// Frees all cached arena buffers; returns bytes released.
  std::size_t trim_workspace() { return workspace_.trim(); }

  [[nodiscard]] int threads() const noexcept { return grb::threads(); }

 private:
  Context() = default;

  detail::Workspace workspace_;
};

/// Convenience forwarder for Context::instance().
std::size_t trim_workspace();

/// The arena.* entries of a registry snapshot — or of a
/// RegistrySnapshot::delta_since, to read one interval's leases. The arena
/// publishes its counters through a registry provider (registered with the
/// Context), so this is how benches and tests read them: diff two
/// Registry::instance().snapshot()s and decode the delta.
[[nodiscard]] WorkspaceStats arena_stats_of(
    const grbsm::telemetry::RegistrySnapshot& snap);

/// One per-shard stats domain's share of a snapshot or delta (hits/steals/
/// misses/bytes_leased only — the other fields stay zero). Engine shards
/// attribute their leases to a domain via detail::ScopedStatsDomain; a
/// domain with no leases yet is absent and reads as zeros.
[[nodiscard]] WorkspaceStats arena_stats_of(
    const grbsm::telemetry::RegistrySnapshot& snap, std::size_t domain);

}  // namespace grb
