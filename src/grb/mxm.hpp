// GrB_mxm: sparse matrix-matrix product over a semiring, C = A ⊕.⊗ B.
// Gustavson's row algorithm with a sparse accumulator (SPA) per thread:
// row i of C is the ⊕-combination of the rows of B selected by row i of A.
// Q2 incremental Step 1 (AC = Likes′ ⊕.⊗ NewFriends) is an mxm whose values
// count how many endpoints of each new friendship like each comment.
#pragma once

#include <utility>
#include <vector>

#include "grb/detail/csr_builder.hpp"
#include "grb/detail/parallel.hpp"
#include "grb/detail/write_back.hpp"
#include "grb/matrix.hpp"
#include "grb/semiring.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb {

namespace detail {

/// Sparse accumulator: dense value + stamp arrays with an occupied list.
/// Reused across rows by bumping the stamp (no O(ncols) clear per row).
template <typename W>
class Spa {
 public:
  explicit Spa(Index n) : val_(n), stamp_(n, 0) { occupied_.reserve(n); }

  void new_row() noexcept {
    ++generation_;
    occupied_.clear();
  }

  template <typename AddOp>
  void accumulate(Index j, const W& v, const AddOp& add) {
    if (stamp_[j] == generation_) {
      val_[j] = static_cast<W>(add(val_[j], v));
    } else {
      stamp_[j] = generation_;
      val_[j] = v;
      occupied_.push_back(j);
    }
  }

  /// Emits the row's entries sorted by column.
  template <typename Emit>
  void emit_sorted(Emit&& emit) {
    std::sort(occupied_.begin(), occupied_.end());
    for (const Index j : occupied_) {
      emit(j, val_[j]);
    }
  }

  [[nodiscard]] std::size_t nnz() const noexcept { return occupied_.size(); }

 private:
  std::vector<W> val_;
  std::vector<std::uint64_t> stamp_;
  std::vector<Index> occupied_;
  std::uint64_t generation_ = 0;
};

template <typename W, typename SR, typename A, typename B>
Matrix<W> mxm_compute(const SR& sr, const Matrix<A>& a, const Matrix<B>& b) {
  if (a.ncols() != b.nrows()) {
    throw DimensionMismatch("mxm: A is " + std::to_string(a.nrows()) + "x" +
                            std::to_string(a.ncols()) + ", B is " +
                            std::to_string(b.nrows()) + "x" +
                            std::to_string(b.ncols()));
  }
  const Index nrows = a.nrows();

  // Small-work path (the incremental engine's per-delta products): one SPA,
  // one pass, staged append. Skips the symbolic pass's second parallel
  // region and its extra O(ncols) stamp scratch, which would dominate the
  // O(delta-nnz) useful work on the Fig. 5 hot path.
  if (!staged_runs_parallel(nrows, a.nvals() + nrows)) {
    // Same gate build_csr_staged applies to this work hint, so the driver
    // below is guaranteed serial and the single shared SPA is safe.
    Spa<W> spa(b.ncols());
    return build_csr_staged<W>(
        nrows, b.ncols(),
        [&](Index i, auto&& emit) {
          const auto acols = a.row_cols(i);
          const auto avals = a.row_vals(i);
          if (acols.empty()) return;
          spa.new_row();
          for (std::size_t k = 0; k < acols.size(); ++k) {
            const Index t = acols[k];
            const W aval = static_cast<W>(avals[k]);
            const auto bcols = b.row_cols(t);
            const auto bvals = b.row_vals(t);
            for (std::size_t s = 0; s < bcols.size(); ++s) {
              spa.accumulate(
                  bcols[s],
                  static_cast<W>(sr.mul(aval, static_cast<W>(bvals[s]))),
                  sr.add);
            }
          }
          spa.emit_sorted([&](Index j, const W& v) { emit(j, v); });
        },
        a.nvals() + nrows);
  }

  CsrBuilder<W> builder(nrows, b.ncols());

  // Symbolic pass: each output row's pattern size via a value-free SPA —
  // just the generation-stamp array, no values, no occupied list, no sort.
  parallel_region([&](int tid, int nthreads) {
    std::vector<std::uint64_t> stamp(b.ncols(), 0);
    std::uint64_t generation = 0;
    for (Index i = static_cast<Index>(tid); i < nrows;
         i += static_cast<Index>(nthreads)) {
      const auto acols = a.row_cols(i);
      if (acols.empty()) continue;  // row count slots default to 0
      ++generation;
      Index nnz = 0;
      for (const Index t : acols) {
        for (const Index j : b.row_cols(t)) {
          if (stamp[j] != generation) {
            stamp[j] = generation;
            ++nnz;
          }
        }
      }
      builder.count_row(i, nnz);
    }
  });
  builder.finish_symbolic();

  // Numeric pass: full SPA per thread, rows emitted sorted straight into
  // their preallocated CSR slots.
  parallel_region([&](int tid, int nthreads) {
    Spa<W> spa(b.ncols());
    for (Index i = static_cast<Index>(tid); i < nrows;
         i += static_cast<Index>(nthreads)) {
      const auto cols = builder.row_cols(i);
      if (cols.empty()) continue;
      const auto vals = builder.row_vals(i);
      const auto acols = a.row_cols(i);
      const auto avals = a.row_vals(i);
      spa.new_row();
      for (std::size_t k = 0; k < acols.size(); ++k) {
        const Index t = acols[k];
        const W aval = static_cast<W>(avals[k]);
        const auto bcols = b.row_cols(t);
        const auto bvals = b.row_vals(t);
        for (std::size_t s = 0; s < bcols.size(); ++s) {
          spa.accumulate(bcols[s],
                         static_cast<W>(sr.mul(aval, static_cast<W>(bvals[s]))),
                         sr.add);
        }
      }
      std::size_t w = 0;
      spa.emit_sorted([&](Index j, const W& v) {
        cols[w] = j;
        vals[w] = v;
        ++w;
      });
    }
  });
  return std::move(builder).take();
}

}  // namespace detail

/// C = A ⊕.⊗ B.
template <typename W, typename SR, typename A, typename B>
void mxm(Matrix<W>& c, const SR& sr, const Matrix<A>& a, const Matrix<B>& b) {
  auto t = detail::mxm_compute<W>(sr, a, b);
  detail::write_back(c, static_cast<const Matrix<Bool>*>(nullptr), NoAccum{},
                     Descriptor{}, std::move(t));
}

/// C<M> (+)= A ⊕.⊗ B.
template <typename W, typename M, typename Accum, typename SR, typename A,
          typename B>
void mxm(Matrix<W>& c, const Matrix<M>* mask, Accum accum, const SR& sr,
         const Matrix<A>& a, const Matrix<B>& b, const Descriptor& desc = {}) {
  auto t = detail::mxm_compute<W>(sr, a, b);
  detail::write_back(c, mask, accum, desc, std::move(t));
}

}  // namespace grb
