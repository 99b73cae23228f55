#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Index;
using grb::Vector;
using U64 = std::uint64_t;

TEST(Vector, NewVectorIsEmpty) {
  const Vector<U64> v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.nvals(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.at(3).has_value());
}

TEST(Vector, BuildSortsAndStores) {
  const auto v = Vector<U64>::build(6, {4, 1, 3}, {40, 10, 30});
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.at_or(1, 0), 10u);
  EXPECT_EQ(v.at_or(3, 0), 30u);
  EXPECT_EQ(v.at_or(4, 0), 40u);
  EXPECT_EQ(v.at_or(0, 0), 0u);
  EXPECT_EQ(v.indices()[0], 1u);
  EXPECT_EQ(v.indices()[2], 4u);
}

TEST(Vector, BuildCombinesDuplicatesWithDup) {
  const auto plus =
      Vector<U64>::build(4, {2, 2, 2}, {1, 2, 3}, grb::Plus<U64>{});
  EXPECT_EQ(plus.nvals(), 1u);
  EXPECT_EQ(plus.at_or(2, 0), 6u);
  // Default dup is Second: last value wins.
  const auto second = Vector<U64>::build(4, {2, 2}, {7, 9});
  EXPECT_EQ(second.at_or(2, 0), 9u);
}

TEST(Vector, BuildRejectsOutOfBounds) {
  EXPECT_THROW(Vector<U64>::build(3, {3}, {1}), grb::IndexOutOfBounds);
}

TEST(Vector, BuildRejectsLengthMismatch) {
  EXPECT_THROW(Vector<U64>::build(3, {0, 1}, {1}), grb::InvalidValue);
}

TEST(Vector, SetInsertsAndOverwrites) {
  Vector<U64> v(5);
  v.set(2, 20);
  v.set(0, 5);
  v.set(2, 21);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(2, 0), 21u);
  EXPECT_EQ(v.at_or(0, 0), 5u);
}

TEST(Vector, EraseRemovesEntry) {
  auto v = Vector<U64>::build(5, {1, 2, 3}, {1, 2, 3});
  v.erase(2);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_FALSE(v.at(2).has_value());
  v.erase(2);  // idempotent
  EXPECT_EQ(v.nvals(), 2u);
}

TEST(Vector, AccessOutOfBoundsThrows) {
  Vector<U64> v(3);
  EXPECT_THROW((void)v.at(3), grb::IndexOutOfBounds);
  EXPECT_THROW(v.set(5, 1), grb::IndexOutOfBounds);
  EXPECT_THROW(v.erase(3), grb::IndexOutOfBounds);
}

TEST(Vector, ResizeGrowKeepsEntries) {
  auto v = Vector<U64>::build(4, {0, 3}, {1, 2});
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(3, 0), 2u);
}

TEST(Vector, ResizeShrinkDropsTail) {
  auto v = Vector<U64>::build(10, {0, 4, 9}, {1, 2, 3});
  v.resize(5);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(4, 0), 2u);
}

TEST(Vector, ClearKeepsSize) {
  auto v = Vector<U64>::build(4, {1}, {1});
  v.clear();
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.nvals(), 0u);
}

TEST(Vector, DenseAndFull) {
  const auto d = Vector<Index>::dense(4, [](Index i) { return i * i; });
  EXPECT_EQ(d.nvals(), 4u);
  EXPECT_EQ(d.at_or(3, 0), 9u);
  const auto f = Vector<U64>::full(3, 7);
  EXPECT_EQ(f.to_dense(), (std::vector<U64>{7, 7, 7}));
}

TEST(Vector, ToDenseUsesFill) {
  const auto v = Vector<U64>::build(4, {1}, {5});
  EXPECT_EQ(v.to_dense(9), (std::vector<U64>{9, 5, 9, 9}));
}

TEST(Vector, ExtractTuplesRoundTrip) {
  const auto v = Vector<U64>::build(6, {5, 0, 2}, {50, 1, 20});
  std::vector<Index> idx;
  std::vector<U64> vals;
  v.extract_tuples(idx, vals);
  const auto rebuilt = Vector<U64>::build(6, idx, vals);
  EXPECT_EQ(rebuilt, v);
}

TEST(Vector, EqualityComparesPatternAndValues) {
  const auto a = Vector<U64>::build(4, {1, 2}, {1, 2});
  const auto b = Vector<U64>::build(4, {1, 2}, {1, 2});
  const auto c = Vector<U64>::build(4, {1, 2}, {1, 3});
  const auto d = Vector<U64>::build(5, {1, 2}, {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

class VectorBuildSweep : public ::testing::TestWithParam<Index> {};

TEST_P(VectorBuildSweep, BuildFromReversedIndicesSortsCorrectly) {
  const Index n = GetParam();
  std::vector<Index> idx;
  std::vector<U64> vals;
  for (Index i = n; i-- > 0;) {
    idx.push_back(i);
    vals.push_back(i * 3 + 1);
  }
  const auto v = Vector<U64>::build(n, idx, vals);
  EXPECT_EQ(v.nvals(), n);
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(v.at_or(i, 0), i * 3 + 1);
  }
  const auto is = v.indices();
  for (std::size_t k = 1; k < is.size(); ++k) {
    EXPECT_LT(is[k - 1], is[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VectorBuildSweep,
                         ::testing::Values(1, 2, 7, 64, 1000));

// adopt_sorted is the Vector counterpart of Matrix::adopt_csr: kernels hand
// it pre-sorted arrays, and the CsrCheck toggle controls whether the
// sorted-unique/in-range invariants are verified (kDebug = debug builds
// only; kAlways pins violations here in every build type).

TEST(VectorAdoptSorted, AcceptsValidArraysWithAlwaysCheck) {
  const auto v = Vector<U64>::adopt_sorted(6, {1, 3, 4}, {10, 30, 40},
                                           grb::CsrCheck::kAlways);
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.at_or(3, 0), 30u);
}

TEST(VectorAdoptSorted, UnsortedIndicesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {3, 1}, {30, 10},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, DuplicateIndicesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {2, 2}, {20, 21},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, OutOfRangeIndexThrows) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {1, 6}, {10, 60},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, MismatchedArraySizesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {1, 2}, {10},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, NeverSkipsTheCheck) {
  // kNever adopts without looking — the escape hatch for kernels that
  // guarantee the invariants structurally. The arrays here are broken on
  // purpose; only the metadata may be observed.
  const auto v = Vector<U64>::adopt_sorted(6, {3, 1}, {30, 10},
                                           grb::CsrCheck::kNever);
  EXPECT_EQ(v.nvals(), 2u);
}

TEST(VectorUpdateSorted, AddsUpdatesAndDropsInPlace) {
  auto v = Vector<U64>::build(10, {1, 3, 5, 7}, {1, 2, 3, 4});
  const std::vector<Index> idx{0, 3, 4, 5, 9};
  const std::vector<std::int64_t> delta{5, -2, 0, 1, 2};
  v.update_sorted(idx, U64{0}, [&](std::size_t k, U64 x) {
    return x + static_cast<U64>(delta[k]);
  });
  // 0 added, 3 reaches 0 and is dropped, 4 stays absent, 5 updated, 9 added.
  EXPECT_EQ(v, Vector<U64>::build(10, {0, 1, 5, 7, 9}, {5, 1, 4, 4, 2}));
  v.check_invariants();
  EXPECT_THROW(v.update_sorted(std::vector<Index>{10}, U64{0},
                               [](std::size_t, U64 x) { return x; }),
               grb::IndexOutOfBounds);
}

// Property: update_sorted agrees with the same updates on a dense copy, over
// a run of random batches that add, change and drop entries.
TEST(VectorUpdateSorted, MatchesDenseReferenceOverManyBatches) {
  const Index n = 64;
  grbsm::support::Xoshiro256 rng(31);
  Vector<U64> v(n);
  std::vector<U64> dense(n, 0);
  for (int step = 0; step < 300; ++step) {
    std::vector<Index> idx;
    std::vector<U64> next;
    for (Index i = 0; i < n; ++i) {
      if (rng.bounded(8) != 0) continue;
      idx.push_back(i);
      next.push_back(rng.bounded(3) == 0 ? 0 : rng.bounded(5));
    }
    v.update_sorted(idx, U64{0}, [&](std::size_t k, U64) { return next[k]; });
    for (std::size_t k = 0; k < idx.size(); ++k) dense[idx[k]] = next[k];
    std::vector<Index> ref_idx;
    std::vector<U64> ref_val;
    for (Index i = 0; i < n; ++i) {
      if (dense[i] != 0) {
        ref_idx.push_back(i);
        ref_val.push_back(dense[i]);
      }
    }
    ASSERT_EQ(v, Vector<U64>::build(n, ref_idx, ref_val)) << "step " << step;
  }
}

}  // namespace
