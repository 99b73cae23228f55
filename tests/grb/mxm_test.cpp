#include <gtest/gtest.h>

#include <cstdint>

#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Bool;
using grb::Index;
using grb::Matrix;
using U64 = std::uint64_t;

Matrix<U64> random_matrix(Index rows, Index cols, std::size_t nnz,
                          std::uint64_t seed) {
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<grb::Tuple<U64>> tuples;
  tuples.reserve(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    tuples.push_back({rng.bounded(rows), rng.bounded(cols),
                      rng.bounded(9) + 1});
  }
  return Matrix<U64>::build(rows, cols, std::move(tuples), grb::Plus<U64>{});
}

/// Dense-reference product for verification.
std::vector<std::vector<U64>> dense_product(const Matrix<U64>& a,
                                            const Matrix<U64>& b) {
  std::vector<std::vector<U64>> out(a.nrows(),
                                    std::vector<U64>(b.ncols(), 0));
  for (Index i = 0; i < a.nrows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    for (std::size_t k = 0; k < ac.size(); ++k) {
      const auto bc = b.row_cols(ac[k]);
      const auto bv = b.row_vals(ac[k]);
      for (std::size_t s = 0; s < bc.size(); ++s) {
        out[i][bc[s]] += av[k] * bv[s];
      }
    }
  }
  return out;
}

TEST(Mxm, SmallKnownProduct) {
  // [1 2] [5 6]   [19 22]
  // [3 4] [7 8] = [43 50]
  const auto a =
      Matrix<U64>::build(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}});
  const auto b =
      Matrix<U64>::build(2, 2, {{0, 0, 5}, {0, 1, 6}, {1, 0, 7}, {1, 1, 8}});
  Matrix<U64> c(2, 2);
  grb::mxm(c, grb::plus_times_semiring<U64>(), a, b);
  EXPECT_EQ(c.at(0, 0).value(), 19u);
  EXPECT_EQ(c.at(0, 1).value(), 22u);
  EXPECT_EQ(c.at(1, 0).value(), 43u);
  EXPECT_EQ(c.at(1, 1).value(), 50u);
}

TEST(Mxm, IdentityIsNeutral) {
  const auto a = random_matrix(20, 20, 60, 7);
  std::vector<grb::Tuple<U64>> eye;
  for (Index i = 0; i < 20; ++i) eye.push_back({i, i, 1});
  const auto id = Matrix<U64>::build(20, 20, std::move(eye));
  Matrix<U64> left(20, 20), right(20, 20);
  grb::mxm(left, grb::plus_times_semiring<U64>(), id, a);
  grb::mxm(right, grb::plus_times_semiring<U64>(), a, id);
  EXPECT_EQ(left, a);
  EXPECT_EQ(right, a);
}

TEST(Mxm, DimensionMismatchThrows) {
  const Matrix<U64> a(2, 3), b(4, 2);
  Matrix<U64> c(2, 2);
  EXPECT_THROW(grb::mxm(c, grb::plus_times_semiring<U64>(), a, b),
               grb::DimensionMismatch);
}

TEST(Mxm, EmptyOperandYieldsEmpty) {
  const Matrix<U64> a(3, 4);
  const auto b = random_matrix(4, 5, 10, 3);
  Matrix<U64> c(3, 5);
  grb::mxm(c, grb::plus_times_semiring<U64>(), a, b);
  EXPECT_EQ(c.nvals(), 0u);
}

TEST(Mxm, PlusPairCountsStructuralMatches) {
  // C(i,j) = |{k : A(i,k) ∧ B(k,j)}| regardless of values.
  const auto pair = [](const U64&, const U64&) { return U64{1}; };
  const grb::Semiring<grb::Monoid<U64, grb::Plus<U64>>, decltype(pair)>
      plus_pair{grb::plus_monoid<U64>(), pair};
  const auto a = Matrix<U64>::build(1, 3, {{0, 0, 42}, {0, 1, 7}, {0, 2, 9}});
  const auto b =
      Matrix<U64>::build(3, 1, {{0, 0, 11}, {1, 0, 13}, {2, 0, 17}});
  Matrix<U64> c(1, 1);
  grb::mxm(c, plus_pair, a, b);
  EXPECT_EQ(c.at(0, 0).value(), 3u);
}

TEST(Mxm, NewFriendsIncidenceProduct) {
  // The Q2 incremental Step 1 shape: Likes (comments×users) × NewFriends
  // (users×friendships) counts endpoints per (comment, friendship).
  const auto likes = Matrix<U64>::build(
      2, 4, {{0, 1, 1}, {0, 2, 1}, {1, 0, 1}, {1, 2, 1}, {1, 3, 1}});
  // One new friendship between users 2 and 3.
  const auto nf = Matrix<U64>::build(4, 1, {{2, 0, 1}, {3, 0, 1}});
  Matrix<U64> ac(2, 1);
  grb::mxm(ac, grb::plus_times_semiring<U64>(), likes, nf);
  EXPECT_EQ(ac.at(0, 0).value(), 1u);  // comment 0: only user 2 likes it
  EXPECT_EQ(ac.at(1, 0).value(), 2u);  // comment 1: both endpoints
}

struct MxmCase {
  Index m, k, n;
  std::size_t nnz_a, nnz_b;
  std::uint64_t seed;
};

class MxmRandomSweep : public ::testing::TestWithParam<MxmCase> {};

TEST_P(MxmRandomSweep, MatchesDenseReference) {
  const auto p = GetParam();
  const auto a = random_matrix(p.m, p.k, p.nnz_a, p.seed);
  const auto b = random_matrix(p.k, p.n, p.nnz_b, p.seed + 1);
  Matrix<U64> c(p.m, p.n);
  grb::mxm(c, grb::plus_times_semiring<U64>(), a, b);
  const auto ref = dense_product(a, b);
  for (Index i = 0; i < p.m; ++i) {
    for (Index j = 0; j < p.n; ++j) {
      EXPECT_EQ(c.at(i, j).value_or(0), ref[i][j])
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST_P(MxmRandomSweep, SerialAndParallelAgree) {
  const auto p = GetParam();
  const auto a = random_matrix(p.m, p.k, p.nnz_a, p.seed + 2);
  const auto b = random_matrix(p.k, p.n, p.nnz_b, p.seed + 3);
  Matrix<U64> c1(p.m, p.n), c8(p.m, p.n);
  {
    grb::ThreadGuard g(1);
    grb::mxm(c1, grb::plus_times_semiring<U64>(), a, b);
  }
  {
    grb::ThreadGuard g(8);
    grb::mxm(c8, grb::plus_times_semiring<U64>(), a, b);
  }
  EXPECT_EQ(c1, c8);
}

INSTANTIATE_TEST_SUITE_P(
    Random, MxmRandomSweep,
    ::testing::Values(MxmCase{3, 3, 3, 5, 5, 11},
                      MxmCase{10, 20, 15, 60, 80, 12},
                      MxmCase{50, 40, 30, 400, 300, 13},
                      MxmCase{1, 100, 1, 50, 50, 14},
                      MxmCase{100, 1, 100, 80, 80, 15}));

TEST(Mxm, DistributesOverEwiseAdd) {
  // A(B ⊕ C) = AB ⊕ AC for plus_times.
  const auto a = random_matrix(12, 12, 50, 21);
  const auto b = random_matrix(12, 12, 50, 22);
  const auto c = random_matrix(12, 12, 50, 23);
  Matrix<U64> bc(12, 12), left(12, 12), ab(12, 12), ac(12, 12),
      right(12, 12);
  grb::eWiseAdd(bc, grb::Plus<U64>{}, b, c);
  grb::mxm(left, grb::plus_times_semiring<U64>(), a, bc);
  grb::mxm(ab, grb::plus_times_semiring<U64>(), a, b);
  grb::mxm(ac, grb::plus_times_semiring<U64>(), a, c);
  grb::eWiseAdd(right, grb::Plus<U64>{}, ab, ac);
  EXPECT_EQ(left, right);
}

}  // namespace
