#include <gtest/gtest.h>

#include <cstdint>

#include "grb/grb.hpp"

namespace {

using grb::Bool;
using grb::Index;
using grb::Matrix;
using grb::Vector;
using U64 = std::uint64_t;

Matrix<U64> example_matrix() {
  // [ 1 . 2 ]
  // [ . 3 . ]
  // [ 4 . 5 ]
  return Matrix<U64>::build(
      3, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5}});
}

TEST(Mxv, PlusTimesDenseVector) {
  const auto a = example_matrix();
  const auto u = Vector<U64>::build(3, {0, 1, 2}, {1, 1, 1});
  Vector<U64> w(3);
  grb::mxv(w, grb::plus_times_semiring<U64>(), a, u);
  EXPECT_EQ(w.at_or(0, 0), 3u);
  EXPECT_EQ(w.at_or(1, 0), 3u);
  EXPECT_EQ(w.at_or(2, 0), 9u);
}

TEST(Mxv, SparseVectorSkipsEmptyPositions) {
  const auto a = example_matrix();
  const auto u = Vector<U64>::build(3, {2}, {10});
  Vector<U64> w(3);
  grb::mxv(w, grb::plus_times_semiring<U64>(), a, u);
  EXPECT_EQ(w.nvals(), 2u);  // rows 0, 2 touch column 2
  EXPECT_EQ(w.at_or(0, 0), 20u);
  EXPECT_EQ(w.at_or(2, 0), 50u);
}

TEST(Mxv, EmptyVectorYieldsEmptyResult) {
  const auto a = example_matrix();
  const Vector<U64> u(3);
  Vector<U64> w(3);
  grb::mxv(w, grb::plus_times_semiring<U64>(), a, u);
  EXPECT_EQ(w.nvals(), 0u);
}

TEST(Mxv, PlusSecondSemiringSumsSelectedCells) {
  // Alg. 1 line 8: boolean matrix selects and sums vector cells.
  const auto rp = Matrix<Bool>::build(2, 3, {{0, 0, 1}, {0, 1, 1}, {1, 2, 1}});
  const auto likes = Vector<U64>::build(3, {0, 1}, {2, 3});
  Vector<U64> w(2);
  grb::mxv(w, grb::plus_second_semiring<U64>(), rp, likes);
  EXPECT_EQ(w.at_or(0, 0), 5u);
  EXPECT_EQ(w.at_or(1, 0), 0u);  // no entry: c3 has no likes
  EXPECT_EQ(w.nvals(), 1u);
}

TEST(Mxv, MinSecondSemiringTakesNeighborhoodMinimum) {
  // FastSV hooking step semantics.
  const auto a = Matrix<Bool>::build(
      3, 3, {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}});
  const auto labels = Vector<Index>::dense(3, [](Index i) { return i; });
  Vector<Index> w(3);
  grb::mxv(w, grb::min_second_semiring<Index>(), a, labels);
  EXPECT_EQ(w.at_or(0, 99), 1u);  // neighbor of 0 is 1
  EXPECT_EQ(w.at_or(1, 99), 0u);  // min(0, 2)
  EXPECT_EQ(w.at_or(2, 99), 1u);
}

TEST(Mxv, DimensionMismatchThrows) {
  const auto a = example_matrix();
  const Vector<U64> u(4);
  Vector<U64> w(3);
  EXPECT_THROW(grb::mxv(w, grb::plus_times_semiring<U64>(), a, u),
               grb::DimensionMismatch);
}

TEST(Mxv, ThreadCountDoesNotChangeResult) {
  // Build a larger random-ish band matrix and compare 1 vs 8 threads.
  std::vector<grb::Tuple<U64>> tuples;
  const Index n = 6000;
  for (Index i = 0; i < n; ++i) {
    tuples.push_back({i, i, i % 7 + 1});
    if (i + 1 < n) tuples.push_back({i, i + 1, i % 5 + 1});
    if (i >= 13) tuples.push_back({i, i - 13, 2});
  }
  const auto a = Matrix<U64>::build(n, n, std::move(tuples));
  const auto u = Vector<U64>::dense(n, [](Index i) { return i % 11 + 1; });
  Vector<U64> w1(n), w8(n);
  {
    grb::ThreadGuard g(1);
    grb::mxv(w1, grb::plus_times_semiring<U64>(), a, u);
  }
  {
    grb::ThreadGuard g(8);
    grb::mxv(w8, grb::plus_times_semiring<U64>(), a, u);
  }
  EXPECT_EQ(w1, w8);
}

}  // namespace
