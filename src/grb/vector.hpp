// grb::Vector<T> — a sparse vector stored as parallel (sorted index, value)
// arrays, mirroring GrB_Vector. Vectors in this codebase are usually either
// very sparse (per-update deltas) or effectively dense (score tables), and
// the sorted-coordinate layout handles both without format switching.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <string>
#include <vector>

#include "grb/binary_ops.hpp"
#include "grb/detail/parallel.hpp"
#include "grb/types.hpp"

namespace grb {

template <typename T>
class Vector {
  static_assert(!std::is_same_v<T, bool>,
                "use grb::Bool (uint8_t), not bool: vector<bool> is a "
                "bit-packed proxy and cannot expose spans");

 public:
  using value_type = T;

  Vector() = default;

  /// Empty vector of logical size n (GrB_Vector_new).
  explicit Vector(Index n) : size_(n) {}

  /// Builds from coordinate data (GrB_Vector_build). Duplicates are
  /// combined with `dup`. Indices need not be sorted.
  template <typename Dup = Second<T>>
  static Vector build(Index n, std::vector<Index> idx, std::vector<T> vals,
                      Dup dup = Dup{}) {
    if (idx.size() != vals.size()) {
      throw InvalidValue("build: index/value count mismatch");
    }
    Vector v(n);
    if (idx.empty()) return v;
    // Already-sorted fast path (O(k) check): delta vectors emitted in index
    // order (the common case in the incremental engine) skip the argsort.
    std::vector<std::size_t> order(idx.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!std::is_sorted(idx.begin(), idx.end())) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return idx[a] < idx[b] || (idx[a] == idx[b] && a < b);
      });
    }
    v.ind_.reserve(idx.size());
    v.val_.reserve(idx.size());
    for (const std::size_t k : order) {
      if (idx[k] >= n) {
        throw IndexOutOfBounds("build: index " + std::to_string(idx[k]) +
                               " >= size " + std::to_string(n));
      }
      if (!v.ind_.empty() && v.ind_.back() == idx[k]) {
        v.val_.back() = dup(v.val_.back(), vals[k]);
      } else {
        v.ind_.push_back(idx[k]);
        v.val_.push_back(vals[k]);
      }
    }
#ifndef NDEBUG
    v.check_invariants();
#endif
    return v;
  }

  /// Dense iota-style constructor used by FastSV: v(i) = f(i) for all i.
  /// FastSV rebuilds the grandparent vector every iteration, so the fill
  /// runs in parallel.
  template <typename F>
  static Vector dense(Index n, F&& f) {
    Vector v(n);
    v.ind_.resize(n);
    v.val_.resize(n);
    detail::parallel_for(n, [&](Index i) {
      v.ind_[i] = i;
      v.val_[i] = f(i);
    });
    return v;
  }

  /// Dense constant vector.
  static Vector full(Index n, const T& value) {
    return dense(n, [&](Index) { return value; });
  }

  [[nodiscard]] Index size() const noexcept { return size_; }
  [[nodiscard]] Index nvals() const noexcept {
    return static_cast<Index>(ind_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return ind_.empty(); }

  /// Drops all entries, keeps the logical size (GrB_Vector_clear).
  void clear() noexcept {
    ind_.clear();
    val_.clear();
  }

  /// Changes the logical size (GrB_Vector_resize). Shrinking drops
  /// out-of-range entries; growing keeps everything.
  void resize(Index n) {
    if (n < size_) {
      const auto it = std::lower_bound(ind_.begin(), ind_.end(), n);
      const auto keep = static_cast<std::size_t>(it - ind_.begin());
      ind_.resize(keep);
      val_.resize(keep);
    }
    size_ = n;
  }

  /// Reads one element (GrB_Vector_extractElement); empty optional if the
  /// position holds no entry.
  [[nodiscard]] std::optional<T> at(Index i) const {
    check_bounds(i);
    const auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    if (it == ind_.end() || *it != i) return std::nullopt;
    return val_[static_cast<std::size_t>(it - ind_.begin())];
  }

  /// Reads one element with a default for empty positions.
  [[nodiscard]] T at_or(Index i, const T& def) const {
    const auto v = at(i);
    return v ? *v : def;
  }

  /// Writes one element (GrB_Vector_setElement). O(nvals) worst case; bulk
  /// changes should go through build() or merge kernels instead.
  void set(Index i, const T& value) {
    check_bounds(i);
    const auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    const auto pos = static_cast<std::size_t>(it - ind_.begin());
    if (it != ind_.end() && *it == i) {
      val_[pos] = value;
    } else {
      ind_.insert(it, i);
      val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), value);
    }
  }

  /// Removes one element if present (GrB_Vector_removeElement).
  void erase(Index i) {
    check_bounds(i);
    const auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    if (it == ind_.end() || *it != i) return;
    const auto pos = static_cast<std::size_t>(it - ind_.begin());
    ind_.erase(it);
    val_.erase(val_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  /// Applies a batch of per-position updates in place (the Vector
  /// counterpart of Matrix::insert_tuples/remove_positions). `idx` must be
  /// strictly ascending. Position idx[k] becomes fn(k, v), where v is its
  /// stored value or `absent` if it has none; a result equal to `absent`
  /// leaves the position without an entry.
  ///
  /// Cost: O(k log nvals) plus block moves of the entries after the first
  /// inserted or dropped one.
  template <typename F>
  void update_sorted(std::span<const Index> idx, const T& absent, F&& fn) {
    if (idx.empty()) return;
    check_bounds(idx.back());
    struct Added {
      std::size_t at;  // insertion offset into ind_
      Index i;
      T val;
    };
    std::vector<std::size_t> dropped;  // offsets into ind_, ascending
    std::vector<Added> added;
    std::size_t cursor = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      cursor = static_cast<std::size_t>(
          std::lower_bound(ind_.begin() + static_cast<std::ptrdiff_t>(cursor),
                           ind_.end(), idx[k]) -
          ind_.begin());
      if (cursor < ind_.size() && ind_[cursor] == idx[k]) {
        val_[cursor] = fn(k, val_[cursor]);
        if (val_[cursor] == absent) dropped.push_back(cursor);
      } else if (T v = fn(k, absent); !(v == absent)) {
        added.push_back({cursor, idx[k], std::move(v)});
      }
    }
    if (!dropped.empty()) {
      // Forward compaction, one block move per gap between dropped entries;
      // insertion offsets then shift down by the drops before them.
      std::size_t w = dropped[0];
      for (std::size_t d = 0; d < dropped.size(); ++d) {
        const std::size_t from = dropped[d] + 1;
        const std::size_t to =
            d + 1 < dropped.size() ? dropped[d + 1] : ind_.size();
        std::move(ind_.begin() + from, ind_.begin() + to, ind_.begin() + w);
        std::move(val_.begin() + from, val_.begin() + to, val_.begin() + w);
        w += to - from;
      }
      ind_.resize(w);
      val_.resize(w);
      std::size_t d = 0;
      for (Added& a : added) {
        while (d < dropped.size() && dropped[d] < a.at) ++d;
        a.at -= d;
      }
    }
    if (!added.empty()) {
      // Grow once, then place new entries from last to first; the stretch
      // between two of them moves as one block by the count still to place.
      std::size_t end = ind_.size();
      ind_.resize(end + added.size());
      val_.resize(end + added.size());
      for (std::size_t a = added.size(); a > 0; --a) {
        Added& next = added[a - 1];
        std::move_backward(ind_.begin() + next.at, ind_.begin() + end,
                           ind_.begin() + end + a);
        std::move_backward(val_.begin() + next.at, val_.begin() + end,
                           val_.begin() + end + a);
        ind_[next.at + a - 1] = next.i;
        val_[next.at + a - 1] = std::move(next.val);
        end = next.at;
      }
    }
  }

  /// Coordinate views (GrB_Vector_extractTuples without the copy).
  [[nodiscard]] std::span<const Index> indices() const noexcept {
    return ind_;
  }
  [[nodiscard]] std::span<const T> values() const noexcept { return val_; }
  [[nodiscard]] std::span<T> values_mut() noexcept { return val_; }

  /// Copies out coordinates (GrB_Vector_extractTuples).
  void extract_tuples(std::vector<Index>& idx, std::vector<T>& vals) const {
    idx.assign(ind_.begin(), ind_.end());
    vals.assign(val_.begin(), val_.end());
  }

  /// Expands into a dense array with `fill` at empty positions.
  [[nodiscard]] std::vector<T> to_dense(const T& fill = T{}) const {
    std::vector<T> out(size_, fill);
    for (std::size_t k = 0; k < ind_.size(); ++k) {
      out[ind_[k]] = val_[k];
    }
    return out;
  }

  /// Dense-order walk of [lo, hi): fn(i, value) for every position, `fill`
  /// at empty ones. One binary search to enter the range, then a linear
  /// cursor over the stored entries.
  template <typename F>
  void for_each_dense(Index lo, Index hi, const T& fill, F&& fn) const {
    auto pos = static_cast<std::size_t>(
        std::lower_bound(ind_.begin(), ind_.end(), lo) - ind_.begin());
    for (Index i = lo; i < hi; ++i) {
      if (pos < ind_.size() && ind_[pos] == i) {
        fn(i, val_[pos++]);
      } else {
        fn(i, fill);
      }
    }
  }

  /// Structural + value equality (same pattern, same stored values).
  friend bool operator==(const Vector& a, const Vector& b) {
    return a.size_ == b.size_ && a.ind_ == b.ind_ && a.val_ == b.val_;
  }

  /// Internal: adopts pre-sorted coordinate arrays produced by a kernel —
  /// the Vector counterpart of Matrix::adopt_csr. Invariants (strictly
  /// ascending in-range indices, matching array sizes) are the caller's
  /// responsibility; `check` controls whether they are verified (default:
  /// debug builds only, so the Release hot path skips the O(nvals) walk).
  static Vector adopt_sorted(Index n, std::vector<Index>&& idx,
                             std::vector<T>&& vals,
                             CsrCheck check = CsrCheck::kDebug) {
    Vector v(n);
    v.ind_ = std::move(idx);
    v.val_ = std::move(vals);
#ifdef NDEBUG
    const bool verify = check == CsrCheck::kAlways;
#else
    const bool verify = check != CsrCheck::kNever;
#endif
    if (verify) v.check_invariants();
    return v;
  }

  void check_invariants() const {
    detail::check(ind_.size() == val_.size(), "index/value size");
    for (std::size_t k = 0; k < ind_.size(); ++k) {
      detail::check(ind_[k] < size_, "index in range");
      detail::check(k == 0 || ind_[k - 1] < ind_[k], "indices sorted/unique");
    }
  }

 private:
  void check_bounds(Index i) const {
    if (i >= size_) {
      throw IndexOutOfBounds("vector index " + std::to_string(i) +
                             " >= size " + std::to_string(size_));
    }
  }

  Index size_ = 0;
  std::vector<Index> ind_;  // sorted, unique
  std::vector<T> val_;      // val_[k] belongs to ind_[k]
};

/// Destroys its argument; nothing else. Kept only because the benchmark
/// harness (ttc_bench/inprocess.cpp) still calls it, like recycle(Matrix&&).
template <typename T>
void recycle(Vector<T>&& v) {
  Vector<T> gone(std::move(v));
}

}  // namespace grb
