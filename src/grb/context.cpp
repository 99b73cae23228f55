#include "grb/context.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>

namespace grb {

namespace {
// 0 = use OpenMP default. The knob is a standalone value — no other data is
// published under it — so relaxed ordering is sufficient; the fork/join of
// the parallel region that consumes it provides the synchronisation.
std::atomic<int> g_threads{0};
}

void set_threads(int n) noexcept {
  g_threads.store(n < 1 ? 0 : n, std::memory_order_relaxed);
}

int threads() noexcept {
  const int n = g_threads.load(std::memory_order_relaxed);
#ifdef _OPENMP
  return n == 0 ? omp_get_max_threads() : n;
#else
  return n == 0 ? 1 : n;
#endif
}

bool threads_pinned() noexcept {
  return g_threads.load(std::memory_order_relaxed) != 0;
}

ThreadGuard::ThreadGuard(int n) noexcept
    : saved_(g_threads.load(std::memory_order_relaxed)) {
  set_threads(n);
}

ThreadGuard::~ThreadGuard() {
  g_threads.store(saved_, std::memory_order_relaxed);
}

}  // namespace grb
