#include <gtest/gtest.h>

#include <cstdint>

#include "grb/grb.hpp"

namespace {

using grb::Index;
using grb::Matrix;
using grb::Vector;
using U64 = std::uint64_t;

Matrix<U64> example() {
  // [ 1 2 . ]
  // [ . . . ]
  // [ 3 . 4 ]
  return Matrix<U64>::build(3, 3,
                            {{0, 0, 1}, {0, 1, 2}, {2, 0, 3}, {2, 2, 4}});
}

TEST(ReduceRows, PlusMonoid) {
  Vector<U64> w(3);
  grb::reduce_rows(w, grb::plus_monoid<U64>(), example());
  EXPECT_EQ(w.at_or(0, 0), 3u);
  EXPECT_FALSE(w.at(1).has_value());  // empty row → no entry
  EXPECT_EQ(w.at_or(2, 0), 7u);
}

TEST(ReduceRows, LorMonoidIsBooleanOr) {
  // Q2 incremental Step 3: any truthy value per row.
  Vector<U64> w(3);
  grb::reduce_rows(w, grb::lor_monoid<U64>(), example());
  EXPECT_EQ(w.at_or(0, 0), 1u);
  EXPECT_EQ(w.at_or(2, 0), 1u);
  EXPECT_EQ(w.nvals(), 2u);
}

TEST(ReduceRows, MinMaxMonoids) {
  Vector<U64> lo(3), hi(3);
  grb::reduce_rows(lo, grb::min_monoid<U64>(), example());
  grb::reduce_rows(hi, grb::max_monoid<U64>(), example());
  EXPECT_EQ(lo.at_or(0, 99), 1u);
  EXPECT_EQ(hi.at_or(0, 99), 2u);
  EXPECT_EQ(lo.at_or(2, 99), 3u);
  EXPECT_EQ(hi.at_or(2, 99), 4u);
}

TEST(ReduceScalar, MatrixAndVector) {
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), example()), 10u);
  const auto v = Vector<U64>::build(5, {1, 3}, {6, 7});
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), v), 13u);
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::max_monoid<U64>(), v), 7u);
}

TEST(ReduceScalar, EmptyYieldsIdentity) {
  const Matrix<U64> m(3, 3);
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), m), 0u);
  const Vector<U64> v(3);
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), v), 0u);
}

TEST(Apply, TimesScalarOnVector) {
  // Alg. 1 line 7: multiply-by-10.
  const auto u = Vector<U64>::build(4, {0, 2}, {2, 1});
  Vector<U64> w(4);
  grb::apply(w, grb::TimesScalar<U64>{10}, u);
  EXPECT_EQ(w.at_or(0, 0), 20u);
  EXPECT_EQ(w.at_or(2, 0), 10u);
  EXPECT_EQ(w.nvals(), 2u);
}

TEST(Apply, UnaryOpsOnMatrix) {
  Matrix<U64> ones(3, 3);
  grb::apply(ones, grb::One<U64>{}, example());
  for (const auto& t : ones.extract_tuples()) {
    EXPECT_EQ(t.val, 1u);
  }
  EXPECT_EQ(ones.nvals(), example().nvals());
}

TEST(Apply, PreservesPattern) {
  const auto u = Vector<U64>::build(4, {1, 3}, {0, 5});
  Vector<U64> w(4);
  grb::apply(w, grb::TimesScalar<U64>{10}, u);
  // Entry with stored value 0 stays an entry (GraphBLAS does not drop
  // explicit zeros).
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_EQ(w.at_or(1, 9), 0u);
  EXPECT_EQ(w.at_or(3, 9), 50u);
}

TEST(Apply, TypeConversion) {
  const auto u = Vector<std::uint8_t>::build(3, {0}, {200});
  Vector<U64> w(3);
  grb::apply(w, grb::TimesScalar<std::uint8_t>{1}, u);
  EXPECT_EQ(w.at_or(0, 0), 200u);
}

TEST(Select, ValueEqKeepsMatchingCells) {
  // Q2 incremental Step 2: keep AC cells equal to 2.
  const auto m = Matrix<U64>::build(
      2, 3, {{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 2, 3}});
  Matrix<U64> kept(2, 3);
  grb::select(kept, grb::ValueEq<U64>{2}, m);
  EXPECT_EQ(kept.nvals(), 2u);
  EXPECT_TRUE(kept.has(0, 1));
  EXPECT_TRUE(kept.has(1, 0));
}

TEST(Select, ValueThresholds) {
  const auto v = Vector<U64>::build(5, {0, 1, 2, 3}, {1, 5, 3, 5});
  Vector<U64> gt(5), ge(5), ne(5);
  const auto above_3 = [](Index, Index, const U64& x) { return x > 3; };
  const auto at_least_3 = [](Index, Index, const U64& x) { return x >= 3; };
  const auto not_5 = [](Index, Index, const U64& x) { return x != 5; };
  grb::select(gt, above_3, v);
  grb::select(ge, at_least_3, v);
  grb::select(ne, not_5, v);
  EXPECT_EQ(gt.nvals(), 2u);
  EXPECT_EQ(ge.nvals(), 3u);
  EXPECT_EQ(ne.nvals(), 2u);
}

TEST(Select, PositionalPredicates) {
  const auto m = Matrix<U64>::build(
      3, 3, {{0, 0, 1}, {0, 2, 1}, {1, 1, 1}, {2, 0, 1}, {2, 1, 1}});
  Matrix<U64> lower(3, 3), upper(3, 3), off(3, 3);
  const auto strict_lower = [](Index i, Index j, const U64&) { return j < i; };
  const auto strict_upper = [](Index i, Index j, const U64&) { return j > i; };
  const auto off_diag = [](Index i, Index j, const U64&) { return i != j; };
  grb::select(lower, strict_lower, m);
  grb::select(upper, strict_upper, m);
  grb::select(off, off_diag, m);
  EXPECT_EQ(lower.nvals(), 2u);  // (2,0), (2,1)
  EXPECT_EQ(upper.nvals(), 1u);  // (0,2)
  EXPECT_EQ(off.nvals(), 3u);
}

TEST(Select, NonZeroDropsExplicitZeros) {
  const auto v = Vector<U64>::build(3, {0, 1}, {0, 2});
  Vector<U64> w(3);
  const auto nonzero = [](Index, Index, const U64& x) { return x != 0; };
  grb::select(w, nonzero, v);
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.at_or(1, 0), 2u);
}

TEST(ReduceRows, MatchesManualRowSums) {
  // Property sweep over a banded matrix.
  const Index n = 200;
  std::vector<grb::Tuple<U64>> tuples;
  for (Index i = 0; i < n; ++i) {
    for (Index d = 0; d < 3 && i + d < n; ++d) {
      tuples.push_back({i, i + d, (i + d) % 10 + 1});
    }
  }
  const auto m = Matrix<U64>::build(n, n, tuples);
  Vector<U64> w(n);
  grb::reduce_rows(w, grb::plus_monoid<U64>(), m);
  for (Index i = 0; i < n; ++i) {
    U64 expect = 0;
    for (Index d = 0; d < 3 && i + d < n; ++d) expect += (i + d) % 10 + 1;
    EXPECT_EQ(w.at_or(i, 0), expect);
  }
}

}  // namespace
