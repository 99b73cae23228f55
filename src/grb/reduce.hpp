// GrB_reduce: fold a matrix into a vector (row-wise) or a scalar, and a
// vector into a scalar, under a commutative monoid. Alg. 1 line 6 is a
// row-wise plus-reduction of RootPost; Q2 incremental Step 3 is a row-wise
// lor-reduction of the AC matrix.
//
// reduce_rows is a chunk-parallel two-pass kernel: the symbolic pass counts
// nonempty rows per chunk from the rowptr degrees (O(1) per row), the
// numeric pass folds each row serially — so per-row fold order, and hence
// the result, is identical at every thread count. Scalar reductions fold
// over detail::parallel_fold's fixed chunk grid.
#pragma once

#include <utility>

#include "grb/detail/parallel.hpp"
#include "grb/detail/sparse_builder.hpp"
#include "grb/detail/write_back.hpp"
#include "grb/matrix.hpp"
#include "grb/semiring.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb {

namespace detail {

template <typename W, typename MonoidT, typename U>
Vector<W> reduce_rows_compute(const MonoidT& monoid, const Matrix<U>& a) {
  // Rows with no entries produce no output entry (GraphBLAS reduce yields a
  // sparse result), so the symbolic count is just the nonempty-row count.
  return build_sparse<W>(
      a.nrows(), a.nrows(),
      [&](Index lo, Index hi) {
        Index cnt = 0;
        for (Index i = lo; i < hi; ++i) cnt += a.row_degree(i) > 0 ? 1 : 0;
        return cnt;
      },
      [&](Index lo, Index hi, std::span<Index> idx, std::span<W> val) {
        std::size_t w = 0;
        for (Index i = lo; i < hi; ++i) {
          const auto av = a.row_vals(i);
          if (av.empty()) continue;
          W s = static_cast<W>(av[0]);
          for (std::size_t k = 1; k < av.size(); ++k) {
            s = monoid(s, static_cast<W>(av[k]));
          }
          idx[w] = i;
          val[w] = s;
          ++w;
        }
      },
      a.nvals());
}

}  // namespace detail

/// w = [⊕_j A(:, j)] — row-wise reduction.
template <typename W, typename MonoidT, typename U>
void reduce_rows(Vector<W>& w, const MonoidT& monoid, const Matrix<U>& a) {
  auto t = detail::reduce_rows_compute<W>(monoid, a);
  detail::write_back(w, static_cast<const Vector<Bool>*>(nullptr), NoAccum{},
                     Descriptor{}, std::move(t));
}

/// w<m> (+)= [⊕_j A(:, j)].
template <typename W, typename M, typename Accum, typename MonoidT,
          typename U>
void reduce_rows(Vector<W>& w, const Vector<M>* mask, Accum accum,
                 const MonoidT& monoid, const Matrix<U>& a,
                 const Descriptor& desc = {}) {
  auto t = detail::reduce_rows_compute<W>(monoid, a);
  detail::write_back(w, mask, accum, desc, std::move(t));
}

namespace detail {

/// Parallel tree reduction of a flat value span under a monoid: fixed-grid
/// chunk partials folded in chunk order (deterministic at any thread count;
/// see parallel_fold).
template <typename S, typename MonoidT, typename U>
[[nodiscard]] S reduce_values(const MonoidT& monoid, std::span<const U> vals) {
  return parallel_fold<S>(
      static_cast<Index>(vals.size()), static_cast<S>(monoid.identity),
      [&](Index lo, Index hi) {
        S s = static_cast<S>(vals[lo]);
        for (Index k = lo + 1; k < hi; ++k) {
          s = monoid(s, static_cast<S>(vals[k]));
        }
        return s;
      },
      [&](const S& x, const S& y) { return monoid(x, y); });
}

}  // namespace detail

/// s = ⊕_{ij} A(i, j) — full reduction to scalar. Empty matrix yields the
/// monoid identity.
template <typename S, typename MonoidT, typename U>
[[nodiscard]] S reduce_scalar(const MonoidT& monoid, const Matrix<U>& a) {
  return detail::reduce_values<S>(monoid, a.values());
}

/// s = ⊕_i u(i).
template <typename S, typename MonoidT, typename U>
[[nodiscard]] S reduce_scalar(const MonoidT& monoid, const Vector<U>& u) {
  return detail::reduce_values<S>(monoid, u.values());
}

}  // namespace grb
