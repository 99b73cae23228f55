// Monoids and semirings. A semiring pairs a commutative additive monoid
// (op + identity) with a multiplicative binary op; matrix products evaluate
// C(i,j) = ⊕_k A(i,k) ⊗ B(k,j) over non-empty positions only.
#pragma once

#include "grb/binary_ops.hpp"

namespace grb {

/// Commutative monoid: associative binary op with an identity element.
template <typename T, typename Op>
struct Monoid {
  using value_type = T;
  Op op{};
  T identity{};

  constexpr T operator()(const T& x, const T& y) const noexcept(
      noexcept(op(x, y))) {
    return op(x, y);
  }
};

/// Semiring: additive monoid ⊕ plus multiplicative op ⊗.
template <typename AddMonoid, typename MulOp>
struct Semiring {
  using value_type = typename AddMonoid::value_type;
  AddMonoid add{};
  MulOp mul{};
};

// --- Monoid factories -------------------------------------------------------

template <typename T>
constexpr auto plus_monoid() {
  return Monoid<T, Plus<T>>{Plus<T>{}, Plus<T>::identity()};
}

template <typename T>
constexpr auto min_monoid() {
  return Monoid<T, Min<T>>{Min<T>{}, Min<T>::identity()};
}

template <typename T>
constexpr auto max_monoid() {
  return Monoid<T, Max<T>>{Max<T>{}, Max<T>::identity()};
}

template <typename T>
constexpr auto lor_monoid() {
  return Monoid<T, LOr<T>>{LOr<T>{}, LOr<T>::identity()};
}

// --- Semiring factories (the catalogue the solution uses) -------------------

/// plus_times: conventional arithmetic semiring. Used by Q2 incremental
/// Step 1 (NewFriendsᵀ × Likesᵀ counts how many endpoints of a friendship
/// like each comment).
template <typename T>
constexpr auto plus_times_semiring() {
  return Semiring<Monoid<T, Plus<T>>, Times<T>>{plus_monoid<T>(), Times<T>{}};
}

/// plus_second: sums the right operand over structural matches. Used by
/// Alg. 1 line 8 (RootPost ⊕.⊗ likesCount — the matrix is boolean, so the
/// product reduces to summing the selected vector cells).
template <typename T>
constexpr auto plus_second_semiring() {
  return Semiring<Monoid<T, Plus<T>>, Second<T>>{plus_monoid<T>(),
                                                 Second<T>{}};
}

/// min_second: propagates the minimum of the right operand — the semiring of
/// FastSV's hooking step (f = min(f, A ⊗ gf)).
template <typename T>
constexpr auto min_second_semiring() {
  return Semiring<Monoid<T, Min<T>>, Second<T>>{min_monoid<T>(), Second<T>{}};
}

}  // namespace grb
