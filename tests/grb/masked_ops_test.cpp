// Masked/accumulated variants of the product, reduce, select and apply
// kernels (mask_accum_test.cpp covers the shared write-back semantics via
// eWiseAdd; these tests pin the plumbing of each remaining entry point).
#include <gtest/gtest.h>

#include <cstdint>

#include "grb/grb.hpp"

namespace {

using grb::Descriptor;
using grb::Index;
using grb::Matrix;
using grb::NoAccum;
using grb::Vector;
using U64 = std::uint64_t;

Matrix<U64> example() {
  // [ 1 2 . ]
  // [ . 3 4 ]
  // [ 5 . 6 ]
  return Matrix<U64>::build(
      3, 3, {{0, 0, 1}, {0, 1, 2}, {1, 1, 3}, {1, 2, 4}, {2, 0, 5}, {2, 2, 6}});
}

TEST(MaskedMxv, OnlyMaskedRowsWritten) {
  const auto u = Vector<U64>::full(3, 1);
  const auto mask = Vector<U64>::build(3, {1}, {1});
  Vector<U64> w(3);
  grb::mxv(w, &mask, NoAccum{}, grb::plus_times_semiring<U64>(), example(),
           u);
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.at_or(1, 0), 7u);
}

TEST(MaskedMxv, AccumulatesIntoExisting) {
  const auto u = Vector<U64>::full(3, 1);
  auto w = Vector<U64>::build(3, {0, 1}, {100, 100});
  grb::mxv(w, static_cast<const Vector<U64>*>(nullptr), grb::Plus<U64>{},
           grb::plus_times_semiring<U64>(), example(), u);
  EXPECT_EQ(w.at_or(0, 0), 103u);
  EXPECT_EQ(w.at_or(1, 0), 107u);
  EXPECT_EQ(w.at_or(2, 0), 11u);
}

TEST(MaskedReduceRows, MaskSelectsRows) {
  const auto mask = Vector<U64>::build(3, {0, 2}, {1, 1});
  Vector<U64> w(3);
  grb::reduce_rows(w, &mask, NoAccum{}, grb::plus_monoid<U64>(), example());
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_EQ(w.at_or(0, 0), 3u);
  EXPECT_EQ(w.at_or(2, 0), 11u);
}

TEST(MaskedReduceRows, AccumAddsRowSums) {
  auto w = Vector<U64>::build(3, {1}, {100});
  grb::reduce_rows(w, static_cast<const Vector<U64>*>(nullptr),
                   grb::Plus<U64>{}, grb::plus_monoid<U64>(), example());
  EXPECT_EQ(w.at_or(1, 0), 107u);
}

TEST(MaskedSelect, VectorMaskAndPredCompose) {
  const auto v = Vector<U64>::build(4, {0, 1, 2, 3}, {5, 10, 15, 20});
  const auto mask = Vector<U64>::build(4, {1, 2}, {1, 1});
  Vector<U64> w(4);
  const auto above_12 = [](Index, Index, const U64& x) { return x > 12; };
  grb::select(w, &mask, NoAccum{}, above_12, v);
  // Pred keeps {15, 20}; mask keeps positions {1, 2}: intersection = {2}.
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.at_or(2, 0), 15u);
}

TEST(MaskedSelect, MatrixMaskApplies) {
  const auto mask = Matrix<U64>::build(3, 3, {{1, 1, 1}, {2, 0, 1}});
  Matrix<U64> c(3, 3);
  const auto nonzero = [](Index, Index, const U64& x) { return x != 0; };
  grb::select(c, &mask, NoAccum{}, nonzero, example());
  EXPECT_EQ(c.nvals(), 2u);
  EXPECT_TRUE(c.has(1, 1));
  EXPECT_TRUE(c.has(2, 0));
}

TEST(MaskedApply, VectorMaskWithReplace) {
  auto w = Vector<U64>::build(3, {0, 1, 2}, {1, 1, 1});
  const auto u = Vector<U64>::build(3, {0, 1}, {5, 6});
  const auto mask = Vector<U64>::build(3, {0}, {1});
  Descriptor d;
  d.replace = true;
  grb::apply(w, &mask, NoAccum{}, grb::TimesScalar<U64>{2}, u, d);
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.at_or(0, 0), 10u);
}

TEST(MaskedApply, MatrixAccum) {
  auto c = Matrix<U64>::build(3, 3, {{0, 0, 100}});
  grb::apply(c, static_cast<const Matrix<U64>*>(nullptr), grb::Plus<U64>{},
             grb::One<U64>{}, example());
  EXPECT_EQ(c.at(0, 0).value(), 101u);  // 100 + 1
  EXPECT_EQ(c.at(2, 2).value(), 1u);
  EXPECT_EQ(c.nvals(), example().nvals());
}

TEST(MaskedEwiseMult, MatrixMaskAndAccum) {
  const auto a = Matrix<U64>::build(2, 2, {{0, 0, 2}, {1, 1, 3}});
  const auto b = Matrix<U64>::build(2, 2, {{0, 0, 5}, {1, 1, 7}});
  auto c = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  const auto mask = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  grb::eWiseMult(c, &mask, grb::Plus<U64>{}, grb::Times<U64>{}, a, b);
  EXPECT_EQ(c.at(0, 0).value(), 11u);  // 1 + 2*5
  EXPECT_EQ(c.nvals(), 1u);            // (1,1) outside mask, no prior entry
}

}  // namespace
