// Two-pass symbolic/numeric sparse-vector assembly — the Vector counterpart
// of the CSR pipeline in csr_builder.hpp, shared by every vector-producing
// kernel:
//
//   pass 1 (symbolic): the iteration domain is cut into fixed-width chunks
//                      and each chunk's output-entry count is recorded into
//                      its chunkptr slot, in parallel;
//   scan:              a parallel exclusive scan (detail::parallel_scan)
//                      turns counts into offsets and sizes the index/value
//                      arrays;
//   pass 2 (numeric):  each chunk writes its entries — in ascending index
//                      order — directly into its slice, in parallel.
//
// The chunk grid depends only on the domain size, never on the delivered
// thread team, so the assembled arrays are bit-identical at every thread
// count (the parallel-equivalence suite pins exactly this). Kernels emit
// sorted coordinates with no per-chunk heap staging and no output sort; the
// arrays are handed to Vector::adopt_sorted as-is (debug builds verify the
// sorted-unique/in-range invariants via CsrCheck::kDebug).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "grb/detail/parallel.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb::detail {

/// Fixed symbolic/numeric chunk width. Chosen at the parallel threshold so a
/// domain that splits into more than one chunk is also one worth threading.
inline constexpr Index kSparseChunk = 4096;

inline Index sparse_num_chunks(Index domain) noexcept {
  return (domain + kSparseChunk - 1) / kSparseChunk;
}

template <typename T>
class SparseVecBuilder {
 public:
  /// Builder for a vector of logical size `size` assembled over an
  /// iteration domain of `domain` positions (entry slots, output positions,
  /// or the index space itself — whatever the kernel chunks over).
  SparseVecBuilder(Index size, Index domain)
      : size_(size),
        domain_(domain),
        chunkptr_(sparse_num_chunks(domain) + 1, 0) {}

  [[nodiscard]] Index num_chunks() const noexcept {
    return static_cast<Index>(chunkptr_.size() - 1);
  }
  [[nodiscard]] Index chunk_lo(Index c) const noexcept {
    return c * kSparseChunk;
  }
  [[nodiscard]] Index chunk_hi(Index c) const noexcept {
    return std::min<Index>(domain_, chunk_lo(c) + kSparseChunk);
  }

  /// Pass 1: declare that chunk c produces n entries.
  void count_chunk(Index c, Index n) noexcept { chunkptr_[c + 1] = n; }

  /// Scans counts into offsets and allocates the entry arrays. Returns the
  /// output nvals. Must be called exactly once, between the passes.
  Index finish_symbolic() {
    const Index nnz = parallel_scan(chunkptr_);
    ind_.resize(nnz);
    val_.resize(nnz);
    return nnz;
  }

  /// Pass 2 views: chunk c owns [chunkptr[c], chunkptr[c+1]) of the flat
  /// arrays. Entries must be written in ascending index order.
  [[nodiscard]] std::span<Index> chunk_indices(Index c) noexcept {
    return {ind_.data() + chunkptr_[c],
            static_cast<std::size_t>(chunkptr_[c + 1] - chunkptr_[c])};
  }
  [[nodiscard]] std::span<T> chunk_values(Index c) noexcept {
    return {val_.data() + chunkptr_[c],
            static_cast<std::size_t>(chunkptr_[c + 1] - chunkptr_[c])};
  }

  /// Hands the finished arrays to a Vector (invariants verified per
  /// `check`, by default in debug builds only).
  [[nodiscard]] Vector<T> take(CsrCheck check = CsrCheck::kDebug) && {
    return Vector<T>::adopt_sorted(size_, std::move(ind_), std::move(val_),
                                   check);
  }

 private:
  Index size_ = 0;
  Index domain_ = 0;
  std::vector<Index> chunkptr_;
  std::vector<Index> ind_;
  std::vector<T> val_;
};

/// Chunk-parallel two-pass driver for kernels whose symbolic pass is much
/// cheaper than the numeric one (degree arithmetic, lower_bound range
/// counts): `count(lo, hi)` returns the entry count the domain range
/// [lo, hi) produces, and `fill(lo, hi, idx, val)` writes exactly that many
/// entries in ascending index order. `work_hint` sizes the serial-vs-
/// parallel decision (see parallel_for). When counting a range costs as
/// much as producing it, use build_sparse_staged instead.
template <typename T, typename CountF, typename FillF>
Vector<T> build_sparse(Index size, Index domain, CountF&& count, FillF&& fill,
                       Index work_hint = 0) {
  SparseVecBuilder<T> builder(size, domain);
  const Index nchunks = builder.num_chunks();
  parallel_for(
      nchunks,
      [&](Index c) {
        builder.count_chunk(c, count(builder.chunk_lo(c), builder.chunk_hi(c)));
      },
      work_hint);
  builder.finish_symbolic();
  parallel_for(
      nchunks,
      [&](Index c) {
        fill(builder.chunk_lo(c), builder.chunk_hi(c),
             builder.chunk_indices(c), builder.chunk_values(c));
      },
      work_hint);
  return std::move(builder).take();
}

/// Two-pass driver for kernels whose per-range computation costs as much as
/// the range itself (sorted merges, intersections, lookups, stateful
/// predicates): `emit_range(lo, hi, emit)` must call `emit(index, value)`
/// once per output entry of the domain range [lo, hi), in ascending index
/// order, and must be correct for ANY partition of the domain into
/// ascending ranges. The serial path runs it once over the whole domain —
/// the emitted stream IS the final entry order, appended with zero copies.
/// The parallel path runs each chunk exactly once, streaming into
/// per-thread staging (the symbolic counts fall out of the same pass), then
/// copies the staged entries into the scanned offsets; chunks are striped
/// deterministically (chunk c → stripe c mod team) so the replay consumes
/// each buffer front to back.
template <typename T, typename EmitRangeF>
Vector<T> build_sparse_staged(Index size, Index domain, EmitRangeF&& emit_range,
                              Index work_hint = 0) {
  const Index work = work_hint == 0 ? domain : work_hint;
  // A single chunk cannot split across threads; run the zero-copy path.
  if (sparse_num_chunks(domain) <= 1 || !staged_runs_parallel(domain, work)) {
    std::vector<Index> ind;
    std::vector<T> val;
    ind.reserve(work);
    val.reserve(work);
    emit_range(Index{0}, domain, [&](Index i, const T& v) {
      ind.push_back(i);
      val.push_back(v);
    });
    return Vector<T>::adopt_sorted(size, std::move(ind), std::move(val));
  }
  SparseVecBuilder<T> builder(size, domain);
  const Index nchunks = builder.num_chunks();
  const auto nteam = static_cast<std::size_t>(effective_threads());
  const std::size_t per_thread = static_cast<std::size_t>(work) / nteam + 1;
  auto ind_stage = team_buffers<Index>(nteam, per_thread);
  auto val_stage = team_buffers<T>(nteam, per_thread);
  int stripes = 1;  // pass-1 team size; pins the chunk→buffer mapping
  parallel_region([&](int tid, int nthreads) {
    if (tid == 0) stripes = nthreads;
    auto& ibuf = ind_stage[static_cast<std::size_t>(tid)];
    auto& vbuf = val_stage[static_cast<std::size_t>(tid)];
    for (Index c = static_cast<Index>(tid); c < nchunks;
         c += static_cast<Index>(nthreads)) {
      const std::size_t before = ibuf.size();
      emit_range(builder.chunk_lo(c), builder.chunk_hi(c),
                 [&](Index i, const T& v) {
                   ibuf.push_back(i);
                   vbuf.push_back(v);
                 });
      builder.count_chunk(c, static_cast<Index>(ibuf.size() - before));
    }
  });
  builder.finish_symbolic();
  parallel_region([&](int tid, int nthreads) {
    // Replay stripe by stripe so the mapping stays correct even if this
    // region's team size differs from pass 1's.
    for (int t = tid; t < stripes; t += nthreads) {
      const auto& ibuf = ind_stage[static_cast<std::size_t>(t)];
      const auto& vbuf = val_stage[static_cast<std::size_t>(t)];
      std::size_t r = 0;
      for (Index c = static_cast<Index>(t); c < nchunks;
           c += static_cast<Index>(stripes)) {
        const auto idx = builder.chunk_indices(c);
        const auto vals = builder.chunk_values(c);
        for (std::size_t w = 0; w < idx.size(); ++w, ++r) {
          idx[w] = ibuf[r];
          vals[w] = vbuf[r];
        }
      }
    }
  });
  return std::move(builder).take();
}

/// Compacts dense accumulator arrays — `present(i)` truthy where slot i
/// holds a value, `value(i)` reading it — into a sorted sparse vector via
/// the two-pass pipeline: the symbolic pass popcounts each chunk, the
/// numeric pass gathers. This is the output stage of the dense-scratch
/// kernels (mxv pull, the Q2 score gather).
template <typename T, typename PresentF, typename ValueF>
Vector<T> compact_dense(Index n, PresentF&& present, ValueF&& value) {
  return build_sparse<T>(
      n, n,
      [&](Index lo, Index hi) {
        Index cnt = 0;
        for (Index i = lo; i < hi; ++i) cnt += present(i) ? 1 : 0;
        return cnt;
      },
      [&](Index lo, Index hi, std::span<Index> idx, std::span<T> val) {
        std::size_t w = 0;
        for (Index i = lo; i < hi; ++i) {
          if (present(i)) {
            idx[w] = i;
            val[w] = value(i);
            ++w;
          }
        }
      },
      n);
}

}  // namespace grb::detail
