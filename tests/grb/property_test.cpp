// Parameterized algebraic property sweeps across sizes/densities/seeds:
// the kernel-level invariants that the query algorithms silently rely on.
#include <gtest/gtest.h>

#include <cstdint>

#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Index;
using grb::Matrix;
using grb::Vector;
using U64 = std::uint64_t;

struct Shape {
  Index n;
  double density;
  std::uint64_t seed;
};

Matrix<U64> random_square(const Shape& s) {
  grbsm::support::Xoshiro256 rng(s.seed);
  std::vector<grb::Tuple<U64>> tuples;
  const auto target =
      static_cast<std::size_t>(static_cast<double>(s.n) *
                               static_cast<double>(s.n) * s.density);
  for (std::size_t k = 0; k < target; ++k) {
    tuples.push_back({rng.bounded(s.n), rng.bounded(s.n),
                      rng.bounded(20) + 1});
  }
  return Matrix<U64>::build(s.n, s.n, std::move(tuples), grb::Plus<U64>{});
}

Vector<U64> random_vector(Index n, double density, std::uint64_t seed) {
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<Index> idx;
  std::vector<U64> val;
  for (Index i = 0; i < n; ++i) {
    if (rng.chance(density)) {
      idx.push_back(i);
      val.push_back(rng.bounded(20) + 1);
    }
  }
  return Vector<U64>::build(n, std::move(idx), std::move(val));
}

class AlgebraSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(AlgebraSweep, TransposeProductIdentity) {
  // (AB)ᵀ = BᵀAᵀ over plus_times.
  const auto s = GetParam();
  const auto a = random_square(s);
  const auto b = random_square({s.n, s.density, s.seed + 1});
  Matrix<U64> ab(s.n, s.n), btat(s.n, s.n);
  grb::mxm(ab, grb::plus_times_semiring<U64>(), a, b);
  grb::mxm(btat, grb::plus_times_semiring<U64>(), grb::transposed(b),
           grb::transposed(a));
  EXPECT_EQ(grb::transposed(ab), btat);
}

TEST_P(AlgebraSweep, MxvAgreesWithMxmOnColumnVector) {
  const auto s = GetParam();
  const auto a = random_square(s);
  const auto u = random_vector(s.n, 0.4, s.seed + 2);
  // Embed u as an n×1 matrix.
  std::vector<grb::Tuple<U64>> col;
  const auto ui = u.indices();
  const auto uv = u.values();
  for (std::size_t k = 0; k < ui.size(); ++k) {
    col.push_back({ui[k], 0, uv[k]});
  }
  const auto ucol = Matrix<U64>::build(s.n, 1, std::move(col));
  Vector<U64> w(s.n);
  grb::mxv(w, grb::plus_times_semiring<U64>(), a, u);
  Matrix<U64> wcol(s.n, 1);
  grb::mxm(wcol, grb::plus_times_semiring<U64>(), a, ucol);
  EXPECT_EQ(w.nvals(), wcol.nvals());
  for (const auto& t : wcol.extract_tuples()) {
    EXPECT_EQ(w.at_or(t.row, 0), t.val);
  }
}

TEST_P(AlgebraSweep, ReduceRowsEqualsMxvOnes) {
  // [⊕_j A(:,j)] = A ⊕.⊗ 1⃗ over plus_times.
  const auto s = GetParam();
  const auto a = random_square(s);
  Vector<U64> red(s.n), prod(s.n);
  grb::reduce_rows(red, grb::plus_monoid<U64>(), a);
  grb::mxv(prod, grb::plus_times_semiring<U64>(), a,
           Vector<U64>::full(s.n, 1));
  EXPECT_EQ(red, prod);
}

TEST_P(AlgebraSweep, EwiseAddAssociates) {
  const auto s = GetParam();
  const auto u = random_vector(s.n, 0.3, s.seed + 3);
  const auto v = random_vector(s.n, 0.3, s.seed + 4);
  const auto w = random_vector(s.n, 0.3, s.seed + 5);
  Vector<U64> uv(s.n), uv_w(s.n), vw(s.n), u_vw(s.n);
  grb::eWiseAdd(uv, grb::Plus<U64>{}, u, v);
  grb::eWiseAdd(uv_w, grb::Plus<U64>{}, uv, w);
  grb::eWiseAdd(vw, grb::Plus<U64>{}, v, w);
  grb::eWiseAdd(u_vw, grb::Plus<U64>{}, u, vw);
  EXPECT_EQ(uv_w, u_vw);
}

TEST_P(AlgebraSweep, SelectPartitionsPattern) {
  // select(p) ∪ select(!p) = original pattern, disjointly.
  const auto s = GetParam();
  const auto a = random_square(s);
  Matrix<U64> yes(s.n, s.n), no(s.n, s.n);
  const auto big = [](Index, Index, const U64& v) { return v >= 10; };
  const auto small = [](Index, Index, const U64& v) { return v < 10; };
  grb::select(yes, big, a);
  grb::select(no, small, a);
  EXPECT_EQ(yes.nvals() + no.nvals(), a.nvals());
  Matrix<U64> merged(s.n, s.n);
  grb::eWiseAdd(merged, grb::Plus<U64>{}, yes, no);
  EXPECT_EQ(merged, a);
}

TEST_P(AlgebraSweep, ExtractFullIndexListIsIdentity) {
  const auto s = GetParam();
  const auto a = random_square(s);
  std::vector<Index> all(s.n);
  for (Index i = 0; i < s.n; ++i) all[i] = i;
  EXPECT_EQ(grb::extract_submatrix(a, all, all), a);
}

TEST_P(AlgebraSweep, ApplyIdentityIsNoop) {
  const auto s = GetParam();
  const auto a = random_square(s);
  Matrix<U64> out(s.n, s.n);
  grb::apply(out, grb::TimesScalar<U64>{1}, a);
  EXPECT_EQ(out, a);
}

TEST_P(AlgebraSweep, ScalarReduceEqualsSumOfRowReduce) {
  const auto s = GetParam();
  const auto a = random_square(s);
  Vector<U64> rows(s.n);
  grb::reduce_rows(rows, grb::plus_monoid<U64>(), a);
  EXPECT_EQ(grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), a),
            grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), rows));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlgebraSweep,
    ::testing::Values(Shape{1, 1.0, 101}, Shape{5, 0.5, 102},
                      Shape{17, 0.2, 103}, Shape{64, 0.05, 104},
                      Shape{128, 0.02, 105}, Shape{256, 0.01, 106}));

}  // namespace
