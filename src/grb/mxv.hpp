// Matrix-vector products over a semiring: GrB_mxv (w = A ⊕.⊗ u) and
// GrB_vxm (wᵀ = uᵀ ⊕.⊗ A). Alg. 1 line 8 (likesScore = RootPost ⊕.⊗
// likesCount) is an mxv with the plus_second semiring; FastSV's hooking step
// is an mxv with min_second; BFS frontier expansion is a vxm.
//
// mxv is the pull (row-major dot) kernel: rows of A are processed
// independently in parallel and the result compacts through the two-pass
// sparse pipeline. The right operand's representation dispatches on its
// density — a dense-ish u is scattered into O(ncols) dense (value, present)
// scratch once, while a sparse u (incremental deltas, early BFS frontiers)
// is probed by binary search per row entry, avoiding the O(ncols)
// allocation entirely.
//
// vxm is the push (transposed scatter) kernel: the rows selected by u's
// pattern scatter into dense accumulators. Large frontiers stripe across
// per-thread accumulators that merge under the additive monoid in thread
// order; small ones run the classic serial scatter (detail::scatter_reduce
// makes the call).
#pragma once

#include <algorithm>
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

/// Pull-side density cutoff: u occupying at least 1/kMxvDenseCutoff of the
/// columns buys the dense scratch; anything sparser dots against u's sorted
/// coordinates directly. Either path computes the same per-row sum in the
/// same entry order, so the dispatch never changes results.
inline constexpr Index kMxvDenseCutoff = 8;

template <typename W, typename SR, typename A, typename U>
Vector<W> mxv_compute(const SR& sr, const Matrix<A>& a, const Vector<U>& u) {
  if (a.ncols() != u.size()) {
    throw DimensionMismatch("mxv: A is " + std::to_string(a.nrows()) + "x" +
                            std::to_string(a.ncols()) + ", u has size " +
                            std::to_string(u.size()));
  }
  const auto ui = u.indices();
  const auto uv = u.values();
  // Dense per-row accumulators.
  std::vector<W> acc(a.nrows());
  std::vector<unsigned char> hit(a.nrows(), 0);
  // Per-row dot product; `lookup(j)` yields u(j)'s value position or -1.
  const auto pull_rows = [&](auto&& lookup) {
    parallel_for(
        a.nrows(),
        [&](Index i) {
          const auto cols = a.row_cols(i);
          const auto vals = a.row_vals(i);
          bool any = false;
          W s{};
          for (std::size_t k = 0; k < cols.size(); ++k) {
            const auto pos = lookup(cols[k]);
            if (pos < 0) continue;
            const W prod = static_cast<W>(
                sr.mul(static_cast<W>(vals[k]),
                       static_cast<W>(uv[static_cast<std::size_t>(pos)])));
            s = any ? static_cast<W>(sr.add(s, prod)) : prod;
            any = true;
          }
          if (any) {
            acc[i] = s;
            hit[i] = 1;
          }
        },
        a.nvals());
  };
  if (u.nvals() * kMxvDenseCutoff >= a.ncols()) {
    // Dense pull: scatter u into (position, present) scratch once.
    std::vector<std::ptrdiff_t> upos(a.ncols(), -1);
    parallel_for(static_cast<Index>(ui.size()), [&](Index k) {
      upos[ui[k]] = static_cast<std::ptrdiff_t>(k);
    });
    pull_rows([&](Index j) { return upos[j]; });
  } else {
    // Sparse pull: probe u's sorted coordinates per row entry — O(deg log
    // nvals(u)) per row, no O(ncols) scratch on the delta hot path.
    pull_rows([&](Index j) -> std::ptrdiff_t {
      const auto it = std::lower_bound(ui.begin(), ui.end(), j);
      if (it == ui.end() || *it != j) return -1;
      return it - ui.begin();
    });
  }
  return compact_dense<W>(
      a.nrows(), [&](Index i) { return hit[i] != 0; },
      [&](Index i) { return acc[i]; });
}

template <typename W, typename SR, typename U, typename A>
Vector<W> vxm_compute(const SR& sr, const Vector<U>& u, const Matrix<A>& a) {
  if (a.nrows() != u.size()) {
    throw DimensionMismatch("vxm: u has size " + std::to_string(u.size()) +
                            ", A is " + std::to_string(a.nrows()) +
                            "x" + std::to_string(a.ncols()));
  }
  const auto ui = u.indices();
  const auto uv = u.values();
  // Push work is the frontier's total degree, not the matrix size.
  Index work = static_cast<Index>(ui.size());
  for (const Index i : ui) work += a.row_degree(i);
  return scatter_reduce<W>(
      a.ncols(), static_cast<Index>(ui.size()),
      [&](Index k, auto&& upd) {
        const Index i = ui[k];
        const auto cols = a.row_cols(i);
        const auto vals = a.row_vals(i);
        for (std::size_t t = 0; t < cols.size(); ++t) {
          upd(cols[t], static_cast<W>(sr.mul(static_cast<W>(uv[k]),
                                             static_cast<W>(vals[t]))));
        }
      },
      [&](const W& x, const W& y) { return sr.add(x, y); }, work);
}

}  // namespace detail

/// w = A ⊕.⊗ u.
template <typename W, typename SR, typename A, typename U>
void mxv(Vector<W>& w, const SR& sr, const Matrix<A>& a, const Vector<U>& u) {
  auto t = detail::mxv_compute<W>(sr, a, u);
  detail::write_back(w, static_cast<const Vector<Bool>*>(nullptr), NoAccum{},
                     Descriptor{}, std::move(t));
}

/// w<m> (+)= A ⊕.⊗ u.
template <typename W, typename M, typename Accum, typename SR, typename A,
          typename U>
void mxv(Vector<W>& w, const Vector<M>* mask, Accum accum, const SR& sr,
         const Matrix<A>& a, const Vector<U>& u, const Descriptor& desc = {}) {
  auto t = detail::mxv_compute<W>(sr, a, u);
  detail::write_back(w, mask, accum, desc, std::move(t));
}

/// wᵀ = uᵀ ⊕.⊗ A.
template <typename W, typename SR, typename U, typename A>
void vxm(Vector<W>& w, const SR& sr, const Vector<U>& u, const Matrix<A>& a) {
  auto t = detail::vxm_compute<W>(sr, u, a);
  detail::write_back(w, static_cast<const Vector<Bool>*>(nullptr), NoAccum{},
                     Descriptor{}, std::move(t));
}

/// wᵀ<mᵀ> (+)= uᵀ ⊕.⊗ A.
template <typename W, typename M, typename Accum, typename SR, typename U,
          typename A>
void vxm(Vector<W>& w, const Vector<M>* mask, Accum accum, const SR& sr,
         const Vector<U>& u, const Matrix<A>& a, const Descriptor& desc = {}) {
  auto t = detail::vxm_compute<W>(sr, u, a);
  detail::write_back(w, mask, accum, desc, std::move(t));
}

}  // namespace grb
