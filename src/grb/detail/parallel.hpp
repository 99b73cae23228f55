// OpenMP helpers shared by the grb kernels. All parallelism in the library
// funnels through these so the global thread cap (grb::set_threads) is
// respected everywhere, mirroring SuiteSparse's GxB_NTHREADS control.
//
// This header is the ONLY place a `#pragma omp` may appear — the repo lint
// (tools/lint_invariants.py, run as a ctest case and a CI job) rejects the
// pragma anywhere else. Confining the pragmas here is what makes the
// concurrency-correctness layer tractable: the TSan happens-before
// annotations (GRB_TSAN_RELEASE/ACQUIRE, see check.hpp) and the debug
// chunk-grid overlap claims cover every parallel construct in the library
// by covering the handful of drivers below.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "grb/context.hpp"
#include "grb/detail/check.hpp"
#include "grb/types.hpp"

namespace grb::detail {

/// Minimum amount of work before a kernel bothers spawning threads; tiny
/// operands (the common case for incremental deltas) stay serial.
inline constexpr Index kParallelThreshold = 4096;

/// Dispatch grain of parallel_for: indices are handed to the team in
/// contiguous blocks of this many, each claimed as one debug overlap-grid
/// range (the same grain the old schedule(dynamic, 256) used).
inline constexpr Index kParallelGrain = 256;

/// Threads actually worth spawning. An explicitly pinned cap
/// (grb::set_threads with n >= 1) is honoured as-is: the paper's harness
/// pins 1 vs 8 threads on the same binary, and the parallel-equivalence
/// suite deliberately oversubscribes small CI runners to drive the
/// multi-threaded code paths. The unpinned default is clamped to the
/// processors available to this process (omp_get_num_procs respects
/// cpusets/affinity), where oversubscription only buys barrier overhead.
inline int effective_threads() noexcept {
#ifdef _OPENMP
  if (grb::threads_pinned()) return grb::threads();
  const int procs = omp_get_num_procs();
  return grb::threads() < procs ? grb::threads() : procs;
#else
  return 1;
#endif
}

/// Runs f(i) for i in [0, n), in parallel when worthwhile. `work_hint`
/// estimates total work (defaults to n) to decide serial vs parallel.
/// Workers draw kParallelGrain-wide index blocks dynamically; each block is
/// claimed on a debug overlap grid before it runs, so a scheduling bug that
/// handed the same indices to two workers aborts in Debug builds.
template <typename F>
void parallel_for(Index n, F&& f, Index work_hint = 0) {
  const Index work = work_hint == 0 ? n : work_hint;
  const int nthreads = effective_threads();
  if (nthreads <= 1 || work < kParallelThreshold) {
    for (Index i = 0; i < n; ++i) f(i);
    return;
  }
#ifdef _OPENMP
  OverlapChecker overlap("parallel_for");
  const auto nchunks = static_cast<std::int64_t>(
      (n + kParallelGrain - 1) / kParallelGrain);
  GRB_TSAN_RELEASE(&overlap);
#pragma omp parallel num_threads(nthreads)
  {
    GRB_TSAN_ACQUIRE(&overlap);
#pragma omp for schedule(dynamic)
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const Index lo = static_cast<Index>(c) * kParallelGrain;
      const Index hi = std::min<Index>(n, lo + kParallelGrain);
      [[maybe_unused]] const auto claim = overlap.claim(lo, hi);
      for (Index i = lo; i < hi; ++i) f(i);
    }
    GRB_TSAN_RELEASE(&overlap);
  }
  GRB_TSAN_ACQUIRE(&overlap);
#else
  for (Index i = 0; i < n; ++i) f(i);
#endif
}

/// Parallel region with per-thread setup: g(thread_id, nthreads) is run once
/// per thread; useful for kernels that keep per-thread scratch (SPAs).
template <typename G>
void parallel_region(G&& g) {
  const int nthreads = effective_threads();
  if (nthreads <= 1) {
    g(0, 1);
    return;
  }
#ifdef _OPENMP
  char fork_join_sync = 0;
  GRB_TSAN_RELEASE(&fork_join_sync);
#pragma omp parallel num_threads(nthreads)
  {
    GRB_TSAN_ACQUIRE(&fork_join_sync);
    g(omp_get_thread_num(), omp_get_num_threads());
    GRB_TSAN_RELEASE(&fork_join_sync);
  }
  GRB_TSAN_ACQUIRE(&fork_join_sync);
#else
  g(0, 1);
#endif
}

/// Coarse-task fan-out (one task ≈ one engine shard): runs f(i) for i in
/// [0, n) on a team of min(n, effective_threads()) threads, one task per
/// dispatch, collecting exceptions — the first thrown is rethrown on the
/// calling thread after the join. Each task claims its index on a debug
/// overlap grid, so a dispatch that handed the same task to two workers
/// aborts in Debug builds. The shard layer's for_each_shard runs through
/// this; nothing outside this header may open its own omp region.
template <typename F>
void parallel_tasks(Index n, F&& f) {
  OverlapChecker overlap("parallel_tasks");
#ifdef _OPENMP
  const int team = static_cast<int>(
      std::min<Index>(n, static_cast<Index>(effective_threads())));
  if (team > 1) {
    std::exception_ptr first_error;
    std::mutex error_mu;
    const auto ni = static_cast<std::int64_t>(n);
    GRB_TSAN_RELEASE(&overlap);
#pragma omp parallel num_threads(team)
    {
      GRB_TSAN_ACQUIRE(&overlap);
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t i = 0; i < ni; ++i) {
        try {
          [[maybe_unused]] const auto claim =
              overlap.claim(static_cast<Index>(i), static_cast<Index>(i) + 1);
          f(static_cast<Index>(i));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
      GRB_TSAN_RELEASE(&overlap);
    }
    GRB_TSAN_ACQUIRE(&overlap);
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
#endif
  for (Index i = 0; i < n; ++i) {
    [[maybe_unused]] const auto claim = overlap.claim(i, i + 1);
    f(i);
  }
}

/// The staged two-pass drivers' serial-vs-parallel gate (build_csr_staged,
/// build_sparse_staged, scatter_reduce), exposed so callers that share
/// scratch across rows (mxm's small-work SPA) can key off the exact same
/// decision instead of duplicating it.
inline bool staged_runs_parallel(Index n, Index work_hint = 0) {
  const Index work = work_hint == 0 ? n : work_hint;
  return effective_threads() > 1 && work >= kParallelThreshold;
}

/// One scratch vector per thread of a team, each with capacity >= n,
/// allocated before the parallel region that fills them (thread tid uses
/// bufs[tid]), so no worker allocates on entry.
template <typename T>
std::vector<std::vector<T>> team_buffers(std::size_t team, std::size_t n) {
  std::vector<std::vector<T>> bufs(team);
  for (auto& b : bufs) b.reserve(n);
  return bufs;
}

/// Chunk width of parallel_fold's reduction grid. Fixed (never derived from
/// the delivered team size) so the fold tree — and therefore the result,
/// even for non-associative float addition — is bit-identical across thread
/// counts.
inline constexpr Index kFoldChunk = 4096;

/// Deterministic parallel reduction: the domain [0, n) is cut into
/// fixed-width chunks, `chunk_fold(lo, hi)` reduces each chunk serially (in
/// parallel across chunks), and the per-chunk partials are joined in chunk
/// order. The tree shape depends only on n, so results are reproducible at
/// any thread count. (The repo lint bans `omp reduction` clauses outright —
/// their combination order varies with the team size — so this is the only
/// sanctioned parallel reduction.)
template <typename S, typename ChunkF, typename JoinF>
S parallel_fold(Index n, S init, ChunkF&& chunk_fold, JoinF&& join) {
  if (n == 0) return init;
  const Index nchunks = (n + kFoldChunk - 1) / kFoldChunk;
  if (nchunks == 1) return join(init, chunk_fold(Index{0}, n));
  std::vector<S> partial(nchunks);
  parallel_for(
      nchunks,
      [&](Index c) {
        const Index lo = c * kFoldChunk;
        const Index hi = std::min<Index>(n, lo + kFoldChunk);
        partial[c] = chunk_fold(lo, hi);
      },
      n);
  S acc = init;
  for (const S& p : partial) acc = join(acc, p);
  return acc;
}

/// In-place exclusive prefix sum in CSR rowptr convention: on entry
/// rowptr[i + 1] holds the entry count of row i and rowptr[0] == 0; on exit
/// rowptr[i] is row i's starting offset and rowptr[n] the total, which is
/// returned. This is the symbolic→numeric handoff of the two-pass kernel
/// pipeline; large arrays scan chunk-wise in parallel.
inline Index parallel_scan(std::span<Index> rowptr) {
  if (rowptr.size() <= 1) return 0;
  const Index n = static_cast<Index>(rowptr.size() - 1);
  const int nthreads = effective_threads();
  if (nthreads <= 1 || n < kParallelThreshold) {
    for (Index i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
    return rowptr[n];
  }
#ifdef _OPENMP
  // Two-phase chunk scan: each thread sums its contiguous chunk, one thread
  // scans the chunk totals, then each thread rescans its chunk shifted by
  // the chunk offset. Barriers separate the phases; each physical barrier
  // carries a matching TSan release/acquire pair because libgomp's futex
  // barriers are invisible to the sanitizer.
  std::vector<Index> chunk_sum(static_cast<std::size_t>(nthreads) + 1, 0);
  char single_sync = 0;
  parallel_region([&](int tid, int nt) {
    const Index chunk = (n + static_cast<Index>(nt) - 1) / static_cast<Index>(nt);
    const Index lo = std::min<Index>(n, chunk * static_cast<Index>(tid));
    const Index hi = std::min<Index>(n, lo + chunk);
    Index sum = 0;
    for (Index i = lo; i < hi; ++i) sum += rowptr[i + 1];
    chunk_sum[static_cast<std::size_t>(tid) + 1] = sum;
    GRB_TSAN_RELEASE(&chunk_sum);
#pragma omp barrier
    GRB_TSAN_ACQUIRE(&chunk_sum);
#pragma omp single
    {
      for (int t = 0; t + 1 < static_cast<int>(chunk_sum.size()); ++t) {
        chunk_sum[static_cast<std::size_t>(t) + 1] +=
            chunk_sum[static_cast<std::size_t>(t)];
      }
      GRB_TSAN_RELEASE(&single_sync);
    }
    // Implicit barrier at the end of `single` orders the rescan after it.
    GRB_TSAN_ACQUIRE(&single_sync);
    Index run = chunk_sum[static_cast<std::size_t>(tid)];
    for (Index i = lo; i < hi; ++i) {
      run += rowptr[i + 1];
      rowptr[i + 1] = run;
    }
  });
  return rowptr[n];
#else
  for (Index i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
  return rowptr[n];
#endif
}

}  // namespace grb::detail
