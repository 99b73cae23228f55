// GrB_transpose. Counting-sort based CSR transpose, O(nnz + nrows + ncols),
// through the two-pass symbolic/numeric pipeline: pass 1 histograms output
// row sizes (per-thread local histograms over contiguous source blocks),
// a parallel scan sizes the arrays, and pass 2 scatters each block into its
// precomputed slice of every output row. Blocks are processed in source-row
// order and each thread owns a disjoint slice per output row, so output
// rows come out sorted without locks or atomics.
//
// The solution stores RootPost as posts×comments and Likes as
// comments×users; transposes produce the opposite orientations when a
// kernel needs them.
#pragma once

#include <utility>
#include <vector>

#include "grb/detail/csr_builder.hpp"
#include "grb/detail/parallel.hpp"
#include "grb/detail/write_back.hpp"
#include "grb/matrix.hpp"
#include "grb/types.hpp"

namespace grb {

namespace detail {

template <typename U>
Matrix<U> transpose_compute(const Matrix<U>& a) {
  const Index nr = a.ncols();  // transposed dims
  const Index nc = a.nrows();
  const Index nnz = a.nvals();
  CsrBuilder<U> builder(nr, nc);
  const auto counts = builder.counts();

  // Parallel pays for itself only when the per-thread histograms (one Index
  // per output row each) are small relative to the scatter work.
  const int nthreads = effective_threads();
  const bool go_parallel =
      nthreads > 1 && nnz >= kParallelThreshold && nr <= nnz;
  if (!go_parallel) {
    for (const Index j : a.colind()) ++counts[j];
    builder.finish_symbolic();
    const auto colind = builder.all_cols();
    const auto val = builder.all_vals();
    std::vector<Index> cursor(nr);
    for (Index j = 0; j < nr; ++j) cursor[j] = builder.row_offset(j);
    for (Index i = 0; i < nc; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const Index pos = cursor[cols[k]]++;
        colind[pos] = i;
        val[pos] = vals[k];
      }
    }
    return std::move(builder).take();
  }

  // Contiguous source-row blocks, one per requested thread. `block[t]`
  // holds thread t's per-output-row histogram in pass 1 and its write
  // cursors in pass 2.
  const int nblocks = nthreads;
  const Index chunk = (nc + static_cast<Index>(nblocks) - 1) /
                      static_cast<Index>(nblocks);
  const auto block_range = [&](int t) {
    const Index lo = std::min<Index>(nc, chunk * static_cast<Index>(t));
    return std::pair<Index, Index>{lo, std::min<Index>(nc, lo + chunk)};
  };
  auto block = team_buffers<Index>(static_cast<std::size_t>(nblocks), nr);
  parallel_region([&](int tid, int nt) {
    for (int t = tid; t < nblocks; t += nt) {
      auto& hist = block[static_cast<std::size_t>(t)];
      hist.assign(nr, 0);
      const auto [lo, hi] = block_range(t);
      for (Index i = lo; i < hi; ++i) {
        for (const Index j : a.row_cols(i)) ++hist[j];
      }
    }
  });
  parallel_for(
      nr, [&](Index j) {
        Index sum = 0;
        for (std::size_t t = 0; t < block.size(); ++t) sum += block[t][j];
        counts[j] = sum;
      },
      nnz);
  builder.finish_symbolic();
  // Turn the histograms into per-block write cursors: block t starts where
  // the blocks before it end inside each output row.
  parallel_for(
      nr, [&](Index j) {
        Index next = builder.row_offset(j);
        for (std::size_t t = 0; t < block.size(); ++t) {
          auto& hist = block[t];
          const Index mine = hist[j];
          hist[j] = next;
          next += mine;
        }
      },
      nnz);
  const auto colind = builder.all_cols();
  const auto val = builder.all_vals();
  parallel_region([&](int tid, int nt) {
    for (int t = tid; t < nblocks; t += nt) {
      auto& cursor = block[static_cast<std::size_t>(t)];
      const auto [lo, hi] = block_range(t);
      for (Index i = lo; i < hi; ++i) {
        const auto cols = a.row_cols(i);
        const auto vals = a.row_vals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const Index pos = cursor[cols[k]]++;
          colind[pos] = i;
          val[pos] = vals[k];
        }
      }
    }
  });
  return std::move(builder).take();
}

}  // namespace detail

/// C = Aᵀ.
template <typename U>
void transpose(Matrix<U>& c, const Matrix<U>& a) {
  auto t = detail::transpose_compute(a);
  detail::write_back(c, static_cast<const Matrix<Bool>*>(nullptr), NoAccum{},
                     Descriptor{}, std::move(t));
}

/// Returns Aᵀ by value.
template <typename U>
[[nodiscard]] Matrix<U> transposed(const Matrix<U>& a) {
  return detail::transpose_compute(a);
}

}  // namespace grb
