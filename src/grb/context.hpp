// Global execution context: controls the number of OpenMP threads the grb
// kernels may use (GxB_set(GxB_NTHREADS, ...) equivalent). The paper
// compares 1-thread and 8-thread configurations of the same binary; the
// benchmark harness flips the thread knob between runs.
#pragma once

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

}  // namespace grb
