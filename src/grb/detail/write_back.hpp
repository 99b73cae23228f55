// The GraphBLAS output-merge step: every operation computes an intermediate
// result T and then performs C<M> (+)= T under the descriptor's replace /
// complement / structural flags. Centralising this here keeps each kernel a
// pure "compute T" function and makes mask/accumulator semantics uniform —
// and uniformly testable.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>

#include "grb/detail/csr_builder.hpp"
#include "grb/detail/sparse_builder.hpp"
#include "grb/matrix.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb::detail {

/// Sorted-index membership cursor over a mask vector. Queries must arrive in
/// nondecreasing index order (write_back iterates merges in order). `from`
/// positions the cursor at the first mask entry >= from, so chunked merges
/// can open a cursor mid-vector in O(log nvals).
template <typename MT>
class MaskCursor {
 public:
  MaskCursor(const Vector<MT>* mask, bool complement, bool structural,
             Index from = 0)
      : mask_(mask), complement_(complement), structural_(structural) {
    if (mask_ != nullptr && from > 0) {
      const auto idx = mask_->indices();
      pos_ = static_cast<std::size_t>(
          std::lower_bound(idx.begin(), idx.end(), from) - idx.begin());
    }
  }

  bool admits(Index i) {
    // Complement of an absent mask admits nothing (GraphBLAS spec).
    if (mask_ == nullptr) return !complement_;
    const auto idx = mask_->indices();
    const auto val = mask_->values();
    while (pos_ < idx.size() && idx[pos_] < i) ++pos_;
    const bool present =
        pos_ < idx.size() && idx[pos_] == i &&
        (structural_ || static_cast<bool>(val[pos_]));
    return complement_ ? !present : present;
  }

 private:
  const Vector<MT>* mask_;
  bool complement_;
  bool structural_;
  std::size_t pos_ = 0;
};

template <typename Accum>
inline constexpr bool has_accum_v = !std::is_same_v<Accum, NoAccum>;

/// C<M> (+)= T for vectors. `t` is consumed.
template <typename CT, typename MT, typename Accum, typename TT>
void write_back(Vector<CT>& c, const Vector<MT>* mask, Accum accum,
                const Descriptor& desc, Vector<TT>&& t) {
  if (c.size() != t.size()) {
    throw DimensionMismatch("output size " + std::to_string(c.size()) +
                            " vs result size " + std::to_string(t.size()));
  }
  if (mask != nullptr && mask->size() != c.size()) {
    throw DimensionMismatch("mask size " + std::to_string(mask->size()) +
                            " vs output size " + std::to_string(c.size()));
  }
  // Fast path: unmasked, no accumulator — C = T.
  if (mask == nullptr && !desc.complement_mask && !has_accum_v<Accum>) {
    if constexpr (std::is_same_v<CT, TT>) {
      c = std::move(t);
      return;
    }
  }
  const auto ci = c.indices();
  const auto cv = c.values();
  const auto ti = t.indices();
  const auto tv = t.values();

  // Chunk-parallel three-way merge of C, M, and T through the staged
  // two-pass pipeline: each index-domain range opens its cursors with a
  // lower_bound and merges exactly once, so mask/accumulator application
  // scales with the parallel kernels feeding it (the matrix branch below
  // got the same treatment in the CSR pipeline).
  const auto merge_range = [&](Index lo, Index hi, auto&& emit) {
    std::size_t a = static_cast<std::size_t>(
        std::lower_bound(ci.begin(), ci.end(), lo) - ci.begin());
    std::size_t b = static_cast<std::size_t>(
        std::lower_bound(ti.begin(), ti.end(), lo) - ti.begin());
    MaskCursor<MT> in_mask(mask, desc.complement_mask, desc.structural_mask,
                           lo);
    while ((a < ci.size() && ci[a] < hi) || (b < ti.size() && ti[b] < hi)) {
      const bool c_in = a < ci.size() && ci[a] < hi;
      const bool t_in = b < ti.size() && ti[b] < hi;
      const bool take_both = c_in && t_in && ci[a] == ti[b];
      const bool take_c = !take_both && c_in && (!t_in || ci[a] < ti[b]);
      const Index i = take_both || take_c ? ci[a] : ti[b];
      const bool admitted = in_mask.admits(i);
      if (take_both) {
        if (admitted) {
          if constexpr (has_accum_v<Accum>) {
            emit(i, static_cast<CT>(accum(cv[a], static_cast<CT>(tv[b]))));
          } else {
            emit(i, static_cast<CT>(tv[b]));
          }
        } else if (!desc.replace) {
          emit(i, cv[a]);
        }
        ++a;
        ++b;
      } else if (take_c) {
        if (admitted) {
          if constexpr (has_accum_v<Accum>) {
            // Accumulator keeps existing entries where T has none.
            emit(i, cv[a]);
          }
          // No accum: in-mask position replaced by (empty) T => deleted.
        } else if (!desc.replace) {
          emit(i, cv[a]);
        }
        ++a;
      } else {  // T only
        if (admitted) {
          emit(i, static_cast<CT>(tv[b]));
        }
        ++b;
      }
    }
  };
  auto merged = build_sparse_staged<CT>(
      c.size(), c.size(), merge_range,
      static_cast<Index>(ci.size() + ti.size()));
  c = std::move(merged);
}

/// C<M> (+)= T for matrices: a row-parallel merge of C, M, and T through
/// the staged CSR pipeline. Each row's three-way merge runs exactly once,
/// streaming survivors into per-thread staging (the symbolic counts fall
/// out of the same pass); the numeric step copies them into the scanned
/// offsets. Mask/accumulator application therefore scales with the
/// parallel kernels feeding it instead of serialising behind them.
template <typename CT, typename MT, typename Accum, typename TT>
void write_back(Matrix<CT>& c, const Matrix<MT>* mask, Accum accum,
                const Descriptor& desc, Matrix<TT>&& t) {
  if (c.nrows() != t.nrows() || c.ncols() != t.ncols()) {
    throw DimensionMismatch("matrix write_back: output " +
                            std::to_string(c.nrows()) + "x" +
                            std::to_string(c.ncols()) + " vs result " +
                            std::to_string(t.nrows()) + "x" +
                            std::to_string(t.ncols()));
  }
  if (mask != nullptr &&
      (mask->nrows() != c.nrows() || mask->ncols() != c.ncols())) {
    throw DimensionMismatch("matrix mask shape");
  }
  if (mask == nullptr && !desc.complement_mask && !has_accum_v<Accum>) {
    if constexpr (std::is_same_v<CT, TT>) {
      c = std::move(t);
      return;
    }
  }
  // Per-row merge of C, M, and T under the descriptor rules. `emit(j, v)`
  // is invoked once per surviving entry in ascending column order; each
  // row's merge runs exactly once (staged pipeline).
  const auto merge_row = [&](Index i, auto&& emit) {
    const auto ci = c.row_cols(i);
    const auto cv = c.row_vals(i);
    const auto ti = t.row_cols(i);
    const auto tv = t.row_vals(i);
    const auto mi =
        mask != nullptr ? mask->row_cols(i) : std::span<const Index>{};
    const auto mv = mask != nullptr ? mask->row_vals(i) : std::span<const MT>{};
    std::size_t m = 0;
    const auto admits = [&](Index j) {
      if (mask == nullptr) return !desc.complement_mask;
      while (m < mi.size() && mi[m] < j) ++m;
      const bool present = m < mi.size() && mi[m] == j &&
                           (desc.structural_mask || static_cast<bool>(mv[m]));
      return desc.complement_mask ? !present : present;
    };
    std::size_t a = 0, b = 0;
    while (a < ci.size() || b < ti.size()) {
      const bool take_both =
          a < ci.size() && b < ti.size() && ci[a] == ti[b];
      const bool take_c =
          !take_both && (b >= ti.size() || (a < ci.size() && ci[a] < ti[b]));
      const Index j = take_both || take_c ? ci[a] : ti[b];
      const bool admitted = admits(j);
      if (take_both) {
        if (admitted) {
          if constexpr (has_accum_v<Accum>) {
            emit(j, static_cast<CT>(accum(cv[a], static_cast<CT>(tv[b]))));
          } else {
            emit(j, static_cast<CT>(tv[b]));
          }
        } else if (!desc.replace) {
          emit(j, cv[a]);
        }
        ++a;
        ++b;
      } else if (take_c) {
        if (admitted) {
          if constexpr (has_accum_v<Accum>) {
            emit(j, cv[a]);
          }
        } else if (!desc.replace) {
          emit(j, cv[a]);
        }
        ++a;
      } else {
        if (admitted) {
          emit(j, static_cast<CT>(tv[b]));
        }
        ++b;
      }
    }
  };
  // Output pattern ⊆ pattern(C) ∪ pattern(T), so this doubles as a tight
  // reserve bound for the staging buffers.
  auto merged = build_csr_staged<CT>(c.nrows(), c.ncols(), merge_row,
                                     c.nvals() + t.nvals());
  c = std::move(merged);
}

}  // namespace grb::detail
