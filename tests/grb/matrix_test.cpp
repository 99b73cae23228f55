#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "grb/grb.hpp"
#include "support/rng.hpp"

// GCC 12 emits a false-positive -Warray-bounds when it inlines Matrix::at on
// a tiny matrix inside EXPECT_THROW: the bounds check throws before the
// flagged access can ever execute, but the catch-path analysis misses that.
#pragma GCC diagnostic ignored "-Warray-bounds"

namespace {

using grb::Index;
using grb::Matrix;
using grb::Tuple;
using U64 = std::uint64_t;

TEST(Matrix, NewMatrixIsEmpty) {
  const Matrix<U64> m(3, 4);
  EXPECT_EQ(m.nrows(), 3u);
  EXPECT_EQ(m.ncols(), 4u);
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_FALSE(m.has(1, 1));
}

TEST(Matrix, BuildUnsortedInput) {
  const auto m = Matrix<U64>::build(
      3, 3, {{2, 1, 21}, {0, 2, 2}, {1, 0, 10}, {0, 0, 1}});
  EXPECT_EQ(m.nvals(), 4u);
  EXPECT_EQ(m.at(0, 0).value(), 1u);
  EXPECT_EQ(m.at(0, 2).value(), 2u);
  EXPECT_EQ(m.at(1, 0).value(), 10u);
  EXPECT_EQ(m.at(2, 1).value(), 21u);
}

TEST(Matrix, BuildCombinesDuplicates) {
  const auto m =
      Matrix<U64>::build(2, 2, {{1, 1, 3}, {1, 1, 4}}, grb::Plus<U64>{});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(1, 1).value(), 7u);
}

TEST(Matrix, BuildRejectsOutOfBounds) {
  EXPECT_THROW(Matrix<U64>::build(2, 2, {{2, 0, 1}}), grb::IndexOutOfBounds);
  EXPECT_THROW(Matrix<U64>::build(2, 2, {{0, 2, 1}}), grb::IndexOutOfBounds);
}

TEST(Matrix, SetInsertsAndOverwrites) {
  Matrix<U64> m(3, 3);
  m.set(1, 2, 5);
  m.set(1, 0, 3);
  m.set(1, 2, 6);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_EQ(m.at(1, 2).value(), 6u);
  EXPECT_EQ(m.at(1, 0).value(), 3u);
  m.check_invariants();
}

TEST(Matrix, RowViews) {
  const auto m = Matrix<U64>::build(2, 4, {{0, 1, 7}, {0, 3, 9}});
  const auto cols = m.row_cols(0);
  const auto vals = m.row_vals(0);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 3u);
  EXPECT_EQ(vals[0], 7u);
  EXPECT_EQ(vals[1], 9u);
  EXPECT_TRUE(m.row_cols(1).empty());
  EXPECT_EQ(m.row_degree(0), 2u);
  EXPECT_EQ(m.row_degree(1), 0u);
}

TEST(Matrix, ResizeGrowKeepsEntriesAndInvariants) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}, {1, 1, 2}});
  m.resize(4, 5);
  EXPECT_EQ(m.nrows(), 4u);
  EXPECT_EQ(m.ncols(), 5u);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_EQ(m.at(1, 1).value(), 2u);
  EXPECT_TRUE(m.row_cols(3).empty());
  m.check_invariants();
  m.set(3, 4, 9);
  EXPECT_EQ(m.at(3, 4).value(), 9u);
}

TEST(Matrix, ResizeShrinkRowsDropsEntries) {
  auto m = Matrix<U64>::build(3, 3, {{0, 0, 1}, {2, 2, 3}});
  m.resize(1, 3);
  EXPECT_EQ(m.nrows(), 1u);
  EXPECT_EQ(m.nvals(), 1u);
  m.check_invariants();
}

TEST(Matrix, ResizeShrinkColsDropsEntries) {
  auto m = Matrix<U64>::build(2, 4, {{0, 0, 1}, {0, 3, 2}, {1, 2, 3}});
  m.resize(2, 2);
  EXPECT_EQ(m.ncols(), 2u);
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(0, 0).value(), 1u);
  m.check_invariants();
}

TEST(Matrix, InsertTuplesMergesSortedBatch) {
  auto m = Matrix<U64>::build(3, 3, {{0, 1, 1}, {2, 0, 2}});
  m.insert_tuples({{1, 1, 10}, {0, 0, 5}, {2, 2, 20}});
  EXPECT_EQ(m.nvals(), 5u);
  EXPECT_EQ(m.at(0, 0).value(), 5u);
  EXPECT_EQ(m.at(0, 1).value(), 1u);
  EXPECT_EQ(m.at(1, 1).value(), 10u);
  EXPECT_EQ(m.at(2, 2).value(), 20u);
  m.check_invariants();
}

TEST(Matrix, InsertTuplesCombinesWithExistingViaDup) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  m.insert_tuples({{0, 0, 2}, {0, 0, 3}}, grb::Plus<U64>{});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(0, 0).value(), 6u);
}

TEST(Matrix, InsertTuplesRejectsOutOfBounds) {
  Matrix<U64> m(2, 2);
  EXPECT_THROW(m.insert_tuples({{2, 0, 1}}), grb::IndexOutOfBounds);
}

TEST(Matrix, ExtractTuplesRoundTrip) {
  const auto m =
      Matrix<U64>::build(3, 3, {{0, 2, 1}, {1, 0, 2}, {2, 2, 3}});
  const auto tuples = m.extract_tuples();
  const auto rebuilt = Matrix<U64>::build(3, 3, tuples);
  EXPECT_EQ(rebuilt, m);
}

TEST(Matrix, ClearKeepsShape) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  m.clear();
  EXPECT_EQ(m.nrows(), 2u);
  EXPECT_EQ(m.nvals(), 0u);
  m.check_invariants();
}

TEST(Matrix, AtOutOfBoundsThrows) {
  const Matrix<U64> m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), grb::IndexOutOfBounds);
  EXPECT_THROW((void)m.at(0, 2), grb::IndexOutOfBounds);
}

struct MergeCase {
  Index n;
  std::size_t initial;
  std::size_t batch;
  std::uint64_t seed;
};

class InsertTuplesSweep : public ::testing::TestWithParam<MergeCase> {};

// Property: insert_tuples(batch) == build(existing ++ batch) with the same
// dup op, for random inputs.
TEST_P(InsertTuplesSweep, EquivalentToRebuild) {
  const auto [n, initial, batch, seed] = GetParam();
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<Tuple<U64>> first, second;
  for (std::size_t k = 0; k < initial; ++k) {
    first.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  for (std::size_t k = 0; k < batch; ++k) {
    second.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  auto incremental = Matrix<U64>::build(n, n, first, grb::Plus<U64>{});
  incremental.insert_tuples(second, grb::Plus<U64>{});

  std::vector<Tuple<U64>> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const auto rebuilt = Matrix<U64>::build(n, n, all, grb::Plus<U64>{});
  EXPECT_EQ(incremental, rebuilt);
  incremental.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Random, InsertTuplesSweep,
    ::testing::Values(MergeCase{4, 3, 3, 1}, MergeCase{16, 30, 10, 2},
                      MergeCase{64, 200, 50, 3}, MergeCase{128, 0, 40, 4},
                      MergeCase{128, 40, 0, 5}, MergeCase{512, 900, 300, 6}));

class RemovePositionsSweep : public ::testing::TestWithParam<MergeCase> {};

// Property: remove_positions(pos) == build(existing minus pos), and the
// returned count is the number of positions that held an entry; absent and
// repeated positions are ignored.
TEST_P(RemovePositionsSweep, EquivalentToRebuildWithoutPositions) {
  const auto [n, initial, batch, seed] = GetParam();
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<Tuple<U64>> entries;
  for (std::size_t k = 0; k < initial; ++k) {
    entries.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  auto incremental = Matrix<U64>::build(n, n, entries, grb::Plus<U64>{});
  const auto stored = incremental.extract_tuples();
  std::vector<std::pair<Index, Index>> pos;
  for (std::size_t k = 0; k < batch; ++k) {
    if (!stored.empty() && rng.bounded(2) == 0) {
      const auto& t = stored[rng.bounded(stored.size())];
      pos.emplace_back(t.row, t.col);  // a hit, possibly repeated
    } else {
      pos.emplace_back(rng.bounded(n), rng.bounded(n));  // usually absent
    }
  }
  std::vector<Tuple<U64>> kept;
  for (const auto& t : stored) {
    if (std::find(pos.begin(), pos.end(), std::pair{t.row, t.col}) ==
        pos.end()) {
      kept.push_back(t);
    }
  }
  EXPECT_EQ(incremental.remove_positions(pos), stored.size() - kept.size());
  EXPECT_EQ(incremental, Matrix<U64>::build(n, n, kept));
  incremental.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Random, RemovePositionsSweep,
    ::testing::Values(MergeCase{4, 3, 3, 1}, MergeCase{16, 30, 10, 2},
                      MergeCase{64, 200, 50, 3}, MergeCase{128, 0, 40, 4},
                      MergeCase{128, 40, 0, 5}, MergeCase{512, 900, 300, 6},
                      MergeCase{8, 60, 80, 7}));

// insert_tuples == build(existing ++ batch) for batches aimed at the edges
// of the in-place walk: row 0 only (every later row shifts), the last row
// only (nothing after it moves), one middle row, only existing entries (no
// growth), and an empty matrix.
void expect_insert_matches_rebuild(const std::vector<Tuple<U64>>& first,
                                   const std::vector<Tuple<U64>>& second,
                                   Index n) {
  auto incremental = Matrix<U64>::build(n, n, first, grb::Plus<U64>{});
  incremental.insert_tuples(second, grb::Plus<U64>{});
  std::vector<Tuple<U64>> all = first;
  all.insert(all.end(), second.begin(), second.end());
  EXPECT_EQ(incremental, Matrix<U64>::build(n, n, all, grb::Plus<U64>{}));
  incremental.check_invariants();
}

std::vector<Tuple<U64>> random_tuples(Index n, std::size_t k,
                                      grbsm::support::Xoshiro256& rng) {
  std::vector<Tuple<U64>> out;
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  return out;
}

TEST(InsertTuplesEdges, BatchInRowZeroOnly) {
  grbsm::support::Xoshiro256 rng(21);
  const auto first = random_tuples(32, 150, rng);
  std::vector<Tuple<U64>> second;
  for (int k = 0; k < 20; ++k) second.push_back({0, rng.bounded(32), 1});
  expect_insert_matches_rebuild(first, second, 32);
}

TEST(InsertTuplesEdges, BatchInLastRowOnly) {
  grbsm::support::Xoshiro256 rng(22);
  const auto first = random_tuples(32, 150, rng);
  std::vector<Tuple<U64>> second;
  for (int k = 0; k < 20; ++k) second.push_back({31, rng.bounded(32), 1});
  expect_insert_matches_rebuild(first, second, 32);
}

TEST(InsertTuplesEdges, BatchInOneMiddleRow) {
  grbsm::support::Xoshiro256 rng(23);
  const auto first = random_tuples(32, 150, rng);
  std::vector<Tuple<U64>> second;
  for (int k = 0; k < 20; ++k) second.push_back({17, rng.bounded(32), 1});
  expect_insert_matches_rebuild(first, second, 32);
}

TEST(InsertTuplesEdges, AllHitsOnExistingEntries) {
  grbsm::support::Xoshiro256 rng(24);
  const auto first = random_tuples(32, 150, rng);
  std::vector<Tuple<U64>> second;
  for (int k = 0; k < 40; ++k) {
    auto t = first[rng.bounded(first.size())];
    t.val = rng.bounded(100);
    second.push_back(t);
  }
  expect_insert_matches_rebuild(first, second, 32);
}

TEST(InsertTuplesEdges, IntoEmptyMatrix) {
  grbsm::support::Xoshiro256 rng(25);
  expect_insert_matches_rebuild({}, random_tuples(32, 60, rng), 32);
  expect_insert_matches_rebuild({}, {{0, 0, 1}}, 1);
}

// A long run of alternating insert and remove batches on one matrix (the
// change-set pattern), checked against a from-scratch build after each step.
TEST(InPlaceUpdates, AlternatingBatchesMatchBuildAtEveryStep) {
  const Index n = 48;
  grbsm::support::Xoshiro256 rng(26);
  auto m = Matrix<U64>::build(n, n, random_tuples(n, 300, rng),
                              grb::Plus<U64>{});
  for (int step = 0; step < 200; ++step) {
    auto expected = m.extract_tuples();
    if (step % 2 == 0) {
      const auto batch = random_tuples(n, 1 + rng.bounded(30), rng);
      m.insert_tuples(batch, grb::Plus<U64>{});
      expected.insert(expected.end(), batch.begin(), batch.end());
    } else {
      std::vector<std::pair<Index, Index>> pos;
      for (std::size_t k = 1 + rng.bounded(30); k > 0; --k) {
        pos.emplace_back(rng.bounded(n), rng.bounded(n));
      }
      m.remove_positions(pos);
      std::erase_if(expected, [&](const Tuple<U64>& t) {
        return std::find(pos.begin(), pos.end(), std::pair{t.row, t.col}) !=
               pos.end();
      });
    }
    m.check_invariants();
    ASSERT_EQ(m, Matrix<U64>::build(n, n, expected, grb::Plus<U64>{}))
        << "step " << step;
  }
}

}  // namespace
