// Built-in unary, binary and index-aware select operators, mirroring the
// GrB_BinaryOp / GrB_UnaryOp / GxB_SelectOp catalogues the paper's solution
// uses. All are stateless function objects so kernels inline them fully.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "grb/types.hpp"

namespace grb {

// ---------------------------------------------------------------------------
// Binary operators (GrB_BinaryOp)
// ---------------------------------------------------------------------------

/// z = y (GrB_SECOND): keeps the right operand; the multiplicative op of the
/// min_second semiring used by FastSV.
template <typename T>
struct Second {
  constexpr T operator()(const T&, const T& y) const noexcept { return y; }
};

/// z = x + y (GrB_PLUS).
template <typename T>
struct Plus {
  static constexpr T identity() noexcept { return T{0}; }
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return x + y;
  }
};

/// z = x - y (GrB_MINUS).
template <typename T>
struct Minus {
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return x - y;
  }
};

/// z = x * y (GrB_TIMES).
template <typename T>
struct Times {
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return x * y;
  }
};

/// z = min(x, y) (GrB_MIN).
template <typename T>
struct Min {
  static constexpr T identity() noexcept {
    return std::numeric_limits<T>::max();
  }
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return y < x ? y : x;
  }
};

/// z = max(x, y) (GrB_MAX).
template <typename T>
struct Max {
  static constexpr T identity() noexcept {
    return std::numeric_limits<T>::lowest();
  }
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return x < y ? y : x;
  }
};

/// z = x || y (GrB_LOR) over any arithmetic type, result in {0, 1}.
template <typename T>
struct LOr {
  static constexpr T identity() noexcept { return T{0}; }
  constexpr T operator()(const T& x, const T& y) const noexcept {
    return static_cast<T>(static_cast<bool>(x) || static_cast<bool>(y));
  }
};

// ---------------------------------------------------------------------------
// Unary operators (GrB_UnaryOp), including scalar-bound binary ops, which is
// how the paper's Alg. 1 line 7 ("apply mul-by-10 op") is expressed.
// ---------------------------------------------------------------------------

/// z = 1 for any present entry (GxB_ONE): pattern-to-ones conversion.
template <typename T>
struct One {
  constexpr T operator()(const T&) const noexcept { return T{1}; }
};

/// z = s * x — GrB_TIMES bound to a scalar (GxB "binop bound to scalar").
template <typename T>
struct TimesScalar {
  T scalar;
  constexpr T operator()(const T& x) const noexcept { return scalar * x; }
};

// ---------------------------------------------------------------------------
// Select operators (GxB_SelectOp): predicates over (i, j, value). The Q2
// incremental algorithm's Step 2 keeps cells whose value equals 2.
// ---------------------------------------------------------------------------

/// Keep entries whose value equals the threshold (GxB select with EQ).
template <typename T>
struct ValueEq {
  T threshold;
  constexpr bool operator()(Index, Index, const T& v) const noexcept {
    return v == threshold;
  }
};

}  // namespace grb
