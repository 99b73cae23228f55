// Two-pass symbolic/numeric CSR assembly — the SuiteSparse:GraphBLAS build
// scheme shared by every matrix-producing kernel:
//
//   pass 1 (symbolic): each output row's entry count is recorded into the
//                      rowptr slot rowptr[i + 1], in parallel;
//   scan:              a parallel exclusive scan (detail::parallel_scan)
//                      turns counts into offsets and sizes colind/val;
//   pass 2 (numeric):  each row writes its sorted entries in place through
//                      row_cols/row_vals spans, in parallel.
//
// Kernels therefore emit sorted CSR directly: no per-row heap staging
// (std::vector<std::vector<...>>), no output tuple sort, and no copy from
// intermediate buffers — the arrays are handed to Matrix::adopt_csr as-is.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "grb/detail/parallel.hpp"
#include "grb/matrix.hpp"
#include "grb/types.hpp"

namespace grb::detail {

template <typename T>
class CsrBuilder {
 public:
  CsrBuilder(Index nrows, Index ncols)
      : nrows_(nrows), ncols_(ncols), rowptr_(nrows + 1, 0) {}

  [[nodiscard]] Index nrows() const noexcept { return nrows_; }
  [[nodiscard]] Index ncols() const noexcept { return ncols_; }

  /// Pass 1: declare that output row i holds n entries. Each row must be
  /// claimed exactly once (rows default to empty); any thread may claim any
  /// row, but a row must not be claimed twice.
  void count_row(Index i, Index n) noexcept { rowptr_[i + 1] = n; }

  /// Pass-1 alternative for histogram-style kernels (transpose): the count
  /// slot of row i is counts()[i]. Not thread-safe across shared rows.
  [[nodiscard]] std::span<Index> counts() noexcept {
    return {rowptr_.data() + 1, static_cast<std::size_t>(nrows_)};
  }

  /// Scans counts into offsets and allocates the entry arrays. Returns the
  /// output nnz. Must be called exactly once, between the passes.
  Index finish_symbolic() {
    const Index nnz = parallel_scan(rowptr_);
    colind_.resize(nnz);
    val_.resize(nnz);
    return nnz;
  }

  /// Pass 2 views: row i owns [rowptr[i], rowptr[i+1]) of the flat arrays.
  /// Entries must be written in ascending column order.
  [[nodiscard]] Index row_offset(Index i) const noexcept {
    return rowptr_[i];
  }
  [[nodiscard]] std::span<Index> row_cols(Index i) noexcept {
    return {colind_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }
  [[nodiscard]] std::span<T> row_vals(Index i) noexcept {
    return {val_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }

  /// Flat views for scatter-style kernels (transpose) that address entries
  /// by absolute position rather than per-row spans.
  [[nodiscard]] std::span<Index> all_cols() noexcept { return colind_; }
  [[nodiscard]] std::span<T> all_vals() noexcept { return val_; }

  /// Hands the finished arrays to a Matrix. Debug builds verify the CSR
  /// invariants; Release builds skip the O(nnz) check (CsrCheck::kDebug).
  [[nodiscard]] Matrix<T> take() && {
    return Matrix<T>::adopt_csr(nrows_, ncols_, std::move(rowptr_),
                                std::move(colind_), std::move(val_));
  }

 private:
  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<Index> rowptr_;
  std::vector<Index> colind_;
  std::vector<T> val_;
};

/// Row-parallel two-pass driver for kernels whose per-row work needs no
/// cross-thread scratch: `count(i)` returns row i's entry count, and
/// `fill(i, cols, vals)` writes exactly that many entries in ascending
/// column order. `work_hint` sizes the serial-vs-parallel decision (see
/// parallel_for); pass an nnz-scale estimate when rows are skewed.
///
/// Use this when the symbolic pass is much cheaper than the numeric one
/// (degree arithmetic, pattern-only walks). When counting a row costs as
/// much as producing it, use build_csr_staged instead.
template <typename T, typename CountF, typename FillF>
Matrix<T> build_csr(Index nrows, Index ncols, CountF&& count, FillF&& fill,
                    Index work_hint = 0) {
  CsrBuilder<T> builder(nrows, ncols);
  parallel_for(
      nrows, [&](Index i) { builder.count_row(i, count(i)); }, work_hint);
  builder.finish_symbolic();
  parallel_for(
      nrows, [&](Index i) { fill(i, builder.row_cols(i), builder.row_vals(i)); },
      work_hint);
  return std::move(builder).take();
}

/// Two-pass driver for kernels whose per-row computation costs as much as
/// the row itself (merges, intersections, lookups): pass 1 runs each row
/// ONCE, streaming its entries — in ascending column order — into a
/// per-thread flat staging buffer and recording the count; after the scan,
/// pass 2 copies the staged entries into their final CSR slices. Rows are
/// striped across threads deterministically (row i → stripe i mod team), so
/// the replay in pass 2 consumes each buffer front to back.
///
/// `emit_row(i, emit)` must call `emit(col, value)` once per entry of row i.
/// No omp barriers are used, so this is safe to call from inside another
/// parallel region (it then runs on a nested single-thread team).
/// The serial-vs-parallel gate lives in parallel.hpp (staged_runs_parallel)
/// so the vector pipeline and callers that share scratch across rows
/// (mxm's small-work SPA) key off the exact same decision.
template <typename T, typename EmitRowF>
Matrix<T> build_csr_staged(Index nrows, Index ncols, EmitRowF&& emit_row,
                           Index work_hint = 0) {
  const bool par = staged_runs_parallel(nrows, work_hint);
  const Index work = work_hint == 0 ? nrows : work_hint;
  if (!par) {
    // Serial: the stream of emitted entries IS the final CSR entry order,
    // so append straight into the output arrays and adopt them — one pass,
    // zero copies, exactly the classic serial merge.
    std::vector<Index> rowptr(nrows + 1, 0);
    std::vector<Index> colind;
    std::vector<T> val;
    colind.reserve(work);
    val.reserve(work);
    for (Index i = 0; i < nrows; ++i) {
      emit_row(i, [&](Index j, const T& v) {
        colind.push_back(j);
        val.push_back(v);
      });
      rowptr[i + 1] = static_cast<Index>(colind.size());
    }
    return Matrix<T>::adopt_csr(nrows, ncols, std::move(rowptr),
                                std::move(colind), std::move(val));
  }
  CsrBuilder<T> builder(nrows, ncols);
  // Per-thread staging sized up front to the thread cap (the delivered team
  // is never larger) so the regions need no barrier.
  const auto nteam = static_cast<std::size_t>(effective_threads());
  const std::size_t per_thread = static_cast<std::size_t>(work) / nteam + 1;
  auto col_stage = team_buffers<Index>(nteam, per_thread);
  auto val_stage = team_buffers<T>(nteam, per_thread);
  int stripes = 1;  // pass-1 team size; pins the row→buffer mapping
  parallel_region([&](int tid, int nthreads) {
    if (tid == 0) stripes = nthreads;
    auto& cbuf = col_stage[static_cast<std::size_t>(tid)];
    auto& vbuf = val_stage[static_cast<std::size_t>(tid)];
    for (Index i = static_cast<Index>(tid); i < nrows;
         i += static_cast<Index>(nthreads)) {
      const std::size_t before = cbuf.size();
      emit_row(i, [&](Index j, const T& v) {
        cbuf.push_back(j);
        vbuf.push_back(v);
      });
      builder.count_row(i, static_cast<Index>(cbuf.size() - before));
    }
  });
  builder.finish_symbolic();
  parallel_region([&](int tid, int nthreads) {
    // Replay stripe by stripe so the mapping stays correct even if this
    // region's team size differs from pass 1's.
    for (int t = tid; t < stripes; t += nthreads) {
      const auto& cbuf = col_stage[static_cast<std::size_t>(t)];
      const auto& vbuf = val_stage[static_cast<std::size_t>(t)];
      std::size_t r = 0;
      for (Index i = static_cast<Index>(t); i < nrows;
           i += static_cast<Index>(stripes)) {
        const auto cols = builder.row_cols(i);
        const auto vals = builder.row_vals(i);
        for (std::size_t w = 0; w < cols.size(); ++w, ++r) {
          cols[w] = cbuf[r];
          vals[w] = vbuf[r];
        }
      }
    }
  });
  return std::move(builder).take();
}

}  // namespace grb::detail
