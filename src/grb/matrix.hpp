// grb::Matrix<T> — a sparse matrix in CSR (compressed sparse row) layout,
// mirroring GrB_Matrix with SuiteSparse's default row-major orientation.
// Column indices within each row are sorted, which kernels rely on for
// merge-based element-wise operations and binary-searched element access.
//
// The social-media workload grows its matrices continuously (new comments
// and users arrive in every change set), so in addition to the standard
// GraphBLAS build/setElement API the class provides `resize` (grow/shrink,
// GxB_Matrix_resize) and `insert_tuples` (sorted batch merge), which is how
// the incremental engine applies a change set in O(nnz + k log k) instead of
// k separate O(nnz) setElement calls.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <string>
#include <vector>

#include "grb/binary_ops.hpp"
#include "grb/types.hpp"

namespace grb {

/// A single coordinate-format entry; build/extractTuples currency.
template <typename T>
struct Tuple {
  Index row = 0;
  Index col = 0;
  T val{};

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

// CsrCheck (the adopt-time invariant-check toggle) lives in grb/types.hpp:
// it is shared with Vector::adopt_sorted, which verifies the same
// sorted-unique/in-range invariants for sparse vectors.

template <typename T>
class Matrix {
  static_assert(!std::is_same_v<T, bool>,
                "use grb::Bool (uint8_t), not bool: vector<bool> is a "
                "bit-packed proxy and cannot expose spans");

 public:
  using value_type = T;

  Matrix() = default;

  /// Empty nrows × ncols matrix (GrB_Matrix_new).
  Matrix(Index nrows, Index ncols)
      : nrows_(nrows), ncols_(ncols), rowptr_(nrows + 1, 0) {}

  /// Builds from coordinate data (GrB_Matrix_build); duplicates combined
  /// with `dup`. Input order is irrelevant.
  template <typename Dup = Plus<T>>
  static Matrix build(Index nrows, Index ncols, std::vector<Tuple<T>> tuples,
                      Dup dup = Dup{}) {
    Matrix m(nrows, ncols);
    if (tuples.empty()) return m;
    for (const auto& t : tuples) {
      if (t.row >= nrows || t.col >= ncols) {
        throw IndexOutOfBounds("build: (" + std::to_string(t.row) + "," +
                               std::to_string(t.col) + ") outside " +
                               std::to_string(nrows) + "x" +
                               std::to_string(ncols));
      }
    }
    sort_tuples(tuples);
    m.colind_.reserve(tuples.size());
    m.val_.reserve(tuples.size());
    for (const auto& t : tuples) {
      if (!m.colind_.empty() && m.rows_pending_ == t.row &&
          m.colind_.back() == t.col) {
        m.val_.back() = dup(m.val_.back(), t.val);
        continue;
      }
      // close rows up to t.row
      while (m.rows_pending_ < t.row) {
        m.rowptr_[++m.rows_pending_] = static_cast<Index>(m.colind_.size());
      }
      m.colind_.push_back(t.col);
      m.val_.push_back(t.val);
    }
    while (m.rows_pending_ < nrows) {
      m.rowptr_[++m.rows_pending_] = static_cast<Index>(m.colind_.size());
    }
    return m;
  }

  [[nodiscard]] Index nrows() const noexcept { return nrows_; }
  [[nodiscard]] Index ncols() const noexcept { return ncols_; }
  [[nodiscard]] Index nvals() const noexcept {
    return static_cast<Index>(colind_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return colind_.empty(); }

  /// Drops all entries, keeps dimensions (GrB_Matrix_clear).
  void clear() noexcept {
    std::fill(rowptr_.begin(), rowptr_.end(), Index{0});
    colind_.clear();
    val_.clear();
  }

  /// Grows or shrinks the logical dimensions (GxB_Matrix_resize). Growing
  /// is O(new rows); shrinking compacts away out-of-range entries.
  void resize(Index nrows, Index ncols) {
    if (ncols < ncols_ && nvals() > 0) {
      // Drop entries in removed columns.
      Index write = 0;
      const Index keep_rows = std::min<Index>(nrows, nrows_);
      std::vector<Index> new_rowptr(keep_rows + 1, 0);
      for (Index i = 0; i < keep_rows; ++i) {
        for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
          if (colind_[k] < ncols) {
            colind_[write] = colind_[k];
            val_[write] = val_[k];
            ++write;
          }
        }
        new_rowptr[i + 1] = write;
      }
      colind_.resize(write);
      val_.resize(write);
      rowptr_ = std::move(new_rowptr);
      nrows_ = keep_rows;
    } else if (nrows < nrows_) {
      const Index cut = rowptr_[nrows];
      colind_.resize(cut);
      val_.resize(cut);
      rowptr_.resize(nrows + 1);
      nrows_ = nrows;
    }
    if (nrows > nrows_) {
      rowptr_.resize(nrows + 1, rowptr_.empty() ? 0 : rowptr_.back());
      // rowptr_ may have been default-initialised above; ensure tail filled.
      for (Index i = nrows_ + 1; i <= nrows; ++i) rowptr_[i] = nvals();
      nrows_ = nrows;
    }
    ncols_ = ncols;
  }

  /// Reads one element (GrB_Matrix_extractElement).
  [[nodiscard]] std::optional<T> at(Index i, Index j) const {
    check_bounds(i, j);
    const auto row = row_cols(i);
    const auto it = std::lower_bound(row.begin(), row.end(), j);
    if (it == row.end() || *it != j) return std::nullopt;
    return val_[rowptr_[i] + static_cast<Index>(it - row.begin())];
  }

  [[nodiscard]] bool has(Index i, Index j) const { return at(i, j).has_value(); }

  /// Writes one element (GrB_Matrix_setElement). O(nnz) worst case due to
  /// CSR insertion; bulk updates should use insert_tuples.
  void set(Index i, Index j, const T& value) {
    check_bounds(i, j);
    const auto row = row_cols(i);
    const auto it = std::lower_bound(row.begin(), row.end(), j);
    const Index pos = rowptr_[i] + static_cast<Index>(it - row.begin());
    if (it != row.end() && *it == j) {
      val_[pos] = value;
      return;
    }
    colind_.insert(colind_.begin() + static_cast<std::ptrdiff_t>(pos), j);
    val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), value);
    for (Index r = i + 1; r <= nrows_; ++r) ++rowptr_[r];
  }

  /// Merges a batch of new tuples into the matrix in one pass. Duplicates
  /// (within the batch or against existing entries) are combined with `dup`.
  /// This is the change-set application primitive of the incremental engine.
  template <typename Dup = Plus<T>>
  void insert_tuples(std::vector<Tuple<T>> tuples, Dup dup = Dup{}) {
    if (tuples.empty()) return;
    for (const auto& t : tuples) {
      if (t.row >= nrows_ || t.col >= ncols_) {
        throw IndexOutOfBounds("insert_tuples: (" + std::to_string(t.row) +
                               "," + std::to_string(t.col) + ") outside " +
                               std::to_string(nrows_) + "x" +
                               std::to_string(ncols_));
      }
    }
    sort_tuples(tuples);
    // Combine duplicates inside the batch first.
    std::vector<Tuple<T>> batch;
    batch.reserve(tuples.size());
    for (auto& t : tuples) {
      if (!batch.empty() && batch.back().row == t.row &&
          batch.back().col == t.col) {
        batch.back().val = dup(batch.back().val, t.val);
      } else {
        batch.push_back(t);
      }
    }
    // Merge old CSR with the sorted batch.
    std::vector<Index> new_rowptr(nrows_ + 1, 0);
    std::vector<Index> new_colind;
    std::vector<T> new_val;
    new_colind.reserve(colind_.size() + batch.size());
    new_val.reserve(val_.size() + batch.size());
    std::size_t b = 0;
    for (Index i = 0; i < nrows_; ++i) {
      Index k = rowptr_[i];
      const Index k_end = rowptr_[i + 1];
      while (k < k_end || (b < batch.size() && batch[b].row == i)) {
        const bool take_old =
            k < k_end && (b >= batch.size() || batch[b].row != i ||
                          colind_[k] < batch[b].col);
        if (take_old) {
          new_colind.push_back(colind_[k]);
          new_val.push_back(val_[k]);
          ++k;
        } else if (k < k_end && batch[b].row == i && colind_[k] == batch[b].col) {
          new_colind.push_back(colind_[k]);
          new_val.push_back(dup(val_[k], batch[b].val));
          ++k;
          ++b;
        } else {
          new_colind.push_back(batch[b].col);
          new_val.push_back(batch[b].val);
          ++b;
        }
      }
      new_rowptr[i + 1] = static_cast<Index>(new_colind.size());
    }
    rowptr_ = std::move(new_rowptr);
    colind_ = std::move(new_colind);
    val_ = std::move(new_val);
  }

  /// Removes a batch of positions in one merge pass (the removal analogue
  /// of insert_tuples). Positions without an entry are ignored. Returns the
  /// number of entries actually removed.
  std::size_t remove_positions(std::vector<std::pair<Index, Index>> pos) {
    if (pos.empty()) return 0;
    for (const auto& [i, j] : pos) {
      if (i >= nrows_ || j >= ncols_) {
        throw IndexOutOfBounds("remove_positions: (" + std::to_string(i) +
                               "," + std::to_string(j) + ")");
      }
    }
    if (!std::is_sorted(pos.begin(), pos.end())) {
      std::sort(pos.begin(), pos.end());
    }
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    std::vector<Index> new_rowptr(nrows_ + 1, 0);
    std::vector<Index> new_colind;
    std::vector<T> new_val;
    new_colind.reserve(colind_.size());
    new_val.reserve(val_.size());
    std::size_t b = 0;
    std::size_t removed = 0;
    for (Index i = 0; i < nrows_; ++i) {
      for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
        while (b < pos.size() && (pos[b].first < i ||
                                  (pos[b].first == i &&
                                   pos[b].second < colind_[k]))) {
          ++b;
        }
        if (b < pos.size() && pos[b].first == i &&
            pos[b].second == colind_[k]) {
          ++removed;
          ++b;
          continue;
        }
        new_colind.push_back(colind_[k]);
        new_val.push_back(val_[k]);
      }
      new_rowptr[i + 1] = static_cast<Index>(new_colind.size());
    }
    rowptr_ = std::move(new_rowptr);
    colind_ = std::move(new_colind);
    val_ = std::move(new_val);
    return removed;
  }

  /// Column indices of row i (sorted). Zero-copy CSR row view.
  [[nodiscard]] std::span<const Index> row_cols(Index i) const {
    return {colind_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }

  /// Values of row i, parallel to row_cols(i).
  [[nodiscard]] std::span<const T> row_vals(Index i) const {
    return {val_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }

  [[nodiscard]] Index row_degree(Index i) const noexcept {
    return rowptr_[i + 1] - rowptr_[i];
  }

  /// Copies out all entries in row-major order (GrB_Matrix_extractTuples).
  [[nodiscard]] std::vector<Tuple<T>> extract_tuples() const {
    std::vector<Tuple<T>> out;
    out.reserve(nvals());
    for (Index i = 0; i < nrows_; ++i) {
      for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
        out.push_back({i, colind_[k], val_[k]});
      }
    }
    return out;
  }

  /// Raw CSR access for kernels.
  [[nodiscard]] std::span<const Index> rowptr() const noexcept {
    return rowptr_;
  }
  [[nodiscard]] std::span<const Index> colind() const noexcept {
    return colind_;
  }
  [[nodiscard]] std::span<const T> values() const noexcept { return val_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.rowptr_ == b.rowptr_ && a.colind_ == b.colind_ &&
           a.val_ == b.val_;
  }

  /// Internal: adopts CSR arrays produced by a kernel. Invariants (sorted
  /// rows, consistent rowptr) are the caller's responsibility; `check`
  /// controls whether they are verified (default: debug builds only, so the
  /// Release hot path skips the O(nnz) walk).
  static Matrix adopt_csr(Index nrows, Index ncols,
                          std::vector<Index>&& rowptr,
                          std::vector<Index>&& colind, std::vector<T>&& val,
                          CsrCheck check = CsrCheck::kDebug) {
    Matrix m;
    m.nrows_ = nrows;
    m.ncols_ = ncols;
    m.rowptr_ = std::move(rowptr);
    m.colind_ = std::move(colind);
    m.val_ = std::move(val);
#ifdef NDEBUG
    const bool verify = check == CsrCheck::kAlways;
#else
    const bool verify = check != CsrCheck::kNever;
#endif
    if (verify) m.check_invariants();
    return m;
  }

  void check_invariants() const {
    detail::check(rowptr_.size() == nrows_ + 1, "rowptr size");
    detail::check(rowptr_.front() == 0, "rowptr[0]");
    detail::check(rowptr_.back() == colind_.size(), "rowptr back");
    detail::check(colind_.size() == val_.size(), "colind/val size");
    for (Index i = 0; i < nrows_; ++i) {
      detail::check(rowptr_[i] <= rowptr_[i + 1], "rowptr monotone");
      for (Index k = rowptr_[i]; k + 1 < rowptr_[i + 1]; ++k) {
        detail::check(colind_[k] < colind_[k + 1], "row sorted/unique");
      }
      for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
        detail::check(colind_[k] < ncols_, "col in range");
      }
    }
  }

 private:
  /// Row-major tuple sort with an O(k) already-sorted fast path: batches
  /// emitted in CSR order (e.g. the incremental engine's netted change
  /// sets, which iterate ordered maps) merge without paying the k log k.
  static void sort_tuples(std::vector<Tuple<T>>& tuples) {
    const auto less = [](const Tuple<T>& a, const Tuple<T>& b) {
      return a.row < b.row || (a.row == b.row && a.col < b.col);
    };
    if (!std::is_sorted(tuples.begin(), tuples.end(), less)) {
      std::sort(tuples.begin(), tuples.end(), less);
    }
  }

  void check_bounds(Index i, Index j) const {
    if (i >= nrows_ || j >= ncols_) {
      throw IndexOutOfBounds("(" + std::to_string(i) + "," +
                             std::to_string(j) + ") outside " +
                             std::to_string(nrows_) + "x" +
                             std::to_string(ncols_));
    }
  }

  Index nrows_ = 0;
  Index ncols_ = 0;
  Index rows_pending_ = 0;  // build() bookkeeping only
  std::vector<Index> rowptr_;
  std::vector<Index> colind_;
  std::vector<T> val_;
};

/// Destroys its argument; nothing else. Kept only because the benchmark
/// harness (ttc_bench/inprocess.cpp) still calls it; delete both sinks
/// together with those calls.
template <typename T>
void recycle(Matrix<T>&& m) {
  Matrix<T> gone(std::move(m));
}

}  // namespace grb
