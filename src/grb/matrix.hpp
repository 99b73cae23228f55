// grb::Matrix<T> — a sparse matrix in CSR (compressed sparse row) layout,
// mirroring GrB_Matrix with SuiteSparse's default row-major orientation.
// Column indices within each row are sorted, which kernels rely on for
// merge-based element-wise operations and binary-searched element access.
//
// The social-media workload grows its matrices continuously (new comments
// and users arrive in every change set), so in addition to the standard
// GraphBLAS build/setElement API the class provides `resize` (grow/shrink,
// GxB_Matrix_resize) and the in-place batch updates `insert_tuples` and
// `remove_positions`, which is how the incremental engine applies a change
// set. Each costs O(k log k + entries after the first touched row): the
// packed arrays are shifted as a few block moves (one per untouched stretch
// between touched rows) and only the touched rows are merged element-wise,
// instead of k separate O(nnz) setElement calls or a rebuild of every row.
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

  /// Merges a batch of new tuples into the matrix in place. Duplicates
  /// (within the batch or against existing entries) are combined with `dup`.
  /// This is the change-set application primitive of the incremental engine.
  ///
  /// Cost: O(k log k) to sort and combine the batch, plus block moves of the
  /// entries after the first row the batch inserts into. Batch tuples that
  /// hit an existing entry are combined where they stand; colind/val then
  /// grow once, the touched rows are walked from last to first, each
  /// untouched stretch between them moves as one block (its slice of rowptr
  /// gets one added offset), and only touched rows are merged element-wise.
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
    // Combine duplicates inside the batch, then fold each tuple that hits an
    // existing entry into it; the rest (`misses`) are compacted to the front
    // of `tuples` and become new entries.
    std::size_t misses = 0;
    Index cur_row = nrows_;
    Index cursor = 0;  // offset in colind_ where the search in cur_row resumes
    for (std::size_t b = 0; b < tuples.size();) {
      Tuple<T> t = std::move(tuples[b++]);
      while (b < tuples.size() && tuples[b].row == t.row &&
             tuples[b].col == t.col) {
        t.val = dup(t.val, tuples[b++].val);
      }
      if (t.row != cur_row) {
        cur_row = t.row;
        cursor = rowptr_[t.row];
      }
      const auto row_end = colind_.begin() + rowptr_[t.row + 1];
      const auto it =
          std::lower_bound(colind_.begin() + cursor, row_end, t.col);
      cursor = static_cast<Index>(it - colind_.begin());
      if (it != row_end && *it == t.col) {
        val_[cursor] = dup(val_[cursor], t.val);
      } else {
        tuples[misses++] = std::move(t);  // misses < b: slot already read
      }
    }
    if (misses == 0) return;

    const Index old_nnz = nvals();
    grow_storage(old_nnz + static_cast<Index>(misses));
    Index end = old_nnz;  // old entries in [0, end) have not moved yet
    Index hi = nrows_;    // rowptr_[r + 1 .. hi] still holds old offsets
    std::size_t b = misses;
    while (b > 0) {
      const Index r = tuples[b - 1].row;
      const Index row_begin = rowptr_[r];
      const Index row_end = rowptr_[r + 1];
      // Everything after row r shifts right by the b new entries in rows <= r.
      const auto shift = static_cast<Index>(b);
      move_block_backward(row_end, end, end + shift);
      for (Index i = r + 1; i <= hi; ++i) rowptr_[i] += shift;
      // Merge row r from its end; its untouched head moves with the next
      // stretch (by the misses in earlier rows).
      Index k = row_end;
      Index w = row_end + shift;
      while (b > 0 && tuples[b - 1].row == r) {
        --w;
        if (k > row_begin && colind_[k - 1] > tuples[b - 1].col) {
          --k;
          colind_[w] = colind_[k];
          val_[w] = std::move(val_[k]);
        } else {
          --b;
          colind_[w] = tuples[b].col;
          val_[w] = std::move(tuples[b].val);
        }
      }
      end = k;
      hi = r;
    }
  }

  /// Removes a batch of positions in place (the removal analogue of
  /// insert_tuples). Positions without an entry are ignored. Returns the
  /// number of entries actually removed.
  ///
  /// Cost: O(k log k) plus a forward compaction of the entries after the
  /// first removed one, done as block moves between removed positions.
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
    // Keep only the positions that hold an entry, rewriting each as
    // (row, storage offset); offsets come out ascending.
    std::size_t hits = 0;
    Index cur_row = nrows_;
    Index cursor = 0;
    for (std::size_t p = 0; p < pos.size(); ++p) {
      const auto [i, j] = pos[p];
      if (i != cur_row) {
        cur_row = i;
        cursor = rowptr_[i];
      }
      const auto row_end = colind_.begin() + rowptr_[i + 1];
      const auto it = std::lower_bound(colind_.begin() + cursor, row_end, j);
      cursor = static_cast<Index>(it - colind_.begin());
      if (it != row_end && *it == j) pos[hits++] = {i, cursor};
    }
    if (hits == 0) return 0;

    const Index old_nnz = nvals();
    Index w = pos[0].second;
    std::size_t d = 0;
    while (d < hits) {
      const Index r = pos[d].first;
      // Close the gaps of row r, then carry the stretch up to the next
      // touched row down by the d removals so far.
      for (; d < hits && pos[d].first == r; ++d) {
        const Index next = d + 1 < hits ? pos[d + 1].second : old_nnz;
        w = move_block(pos[d].second + 1, next, w);
      }
      const Index next_row = d < hits ? pos[d].first : nrows_;
      for (Index i = r + 1; i <= next_row; ++i) {
        rowptr_[i] -= static_cast<Index>(d);
      }
    }
    colind_.resize(w);
    val_.resize(w);
    return hits;
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

  /// Grows colind_/val_ to `n` entries. Capacity grows by an eighth rather
  /// than doubling: a change set adds a few dozen entries to a matrix of
  /// hundreds of thousands, so the headroom lasts many change sets without
  /// doubling the matrix's footprint.
  void grow_storage(Index n) {
    if (n > colind_.capacity()) {
      const Index cap = n + n / 8;
      colind_.reserve(cap);
      val_.reserve(cap);
    }
    colind_.resize(n);
    val_.resize(n);
  }

  /// Moves entries [first, last) to start at `dest` <= first; returns the
  /// end of the moved block.
  Index move_block(Index first, Index last, Index dest) {
    std::move(colind_.begin() + first, colind_.begin() + last,
              colind_.begin() + dest);
    std::move(val_.begin() + first, val_.begin() + last, val_.begin() + dest);
    return dest + (last - first);
  }

  /// Moves entries [first, last) to end at `dest_end` >= last.
  void move_block_backward(Index first, Index last, Index dest_end) {
    std::move_backward(colind_.begin() + first, colind_.begin() + last,
                       colind_.begin() + dest_end);
    std::move_backward(val_.begin() + first, val_.begin() + last,
                       val_.begin() + dest_end);
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
