// Mask / accumulator / descriptor semantics of the C<M> (+)= T output-merge
// model, exercised through eWiseAdd and apply (all kernels share the same
// write-back path, so these tests cover the behaviour globally).
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

Vector<U64> vec(std::vector<Index> i, std::vector<U64> v, Index n = 6) {
  return Vector<U64>::build(n, std::move(i), std::move(v));
}

TEST(Mask, RestrictsWritesToMaskPattern) {
  auto c = vec({0, 1}, {100, 200});
  const auto mask = vec({1, 2}, {1, 1});
  const auto u = vec({0, 1, 2}, {1, 2, 3});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z);
  // In-mask positions 1, 2 take T; position 0 (outside mask) is kept.
  EXPECT_EQ(c.at_or(0, 0), 100u);
  EXPECT_EQ(c.at_or(1, 0), 2u);
  EXPECT_EQ(c.at_or(2, 0), 3u);
}

TEST(Mask, InMaskPositionWithoutResultEntryIsDeleted) {
  // No accumulator: C<M> = T deletes in-mask entries where T is empty.
  auto c = vec({1, 3}, {10, 30});
  const auto mask = vec({1, 3}, {1, 1});
  const auto t = vec({3}, {99});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, t, z);
  EXPECT_FALSE(c.at(1).has_value());
  EXPECT_EQ(c.at_or(3, 0), 99u);
}

TEST(Mask, AccumKeepsOldEntriesWhereResultEmpty) {
  auto c = vec({1, 3}, {10, 30});
  const auto mask = vec({1, 3}, {1, 1});
  const auto t = vec({3}, {99});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, &mask, grb::Plus<U64>{}, grb::Plus<U64>{}, t, z);
  EXPECT_EQ(c.at_or(1, 0), 10u);   // kept by accumulator
  EXPECT_EQ(c.at_or(3, 0), 129u);  // 30 + 99
}

TEST(Mask, ValuedMaskUsesTruthiness) {
  auto c = Vector<U64>(6);
  const auto mask = vec({0, 1}, {0, 7});  // 0 is falsy
  const auto u = vec({0, 1}, {5, 6});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z);
  EXPECT_FALSE(c.at(0).has_value());
  EXPECT_EQ(c.at_or(1, 0), 6u);
}

TEST(Mask, StructuralDescriptorIgnoresValues) {
  auto c = Vector<U64>(6);
  const auto mask = vec({0, 1}, {0, 7});
  const auto u = vec({0, 1}, {5, 6});
  const auto z = Vector<U64>(6);
  Descriptor d;
  d.structural_mask = true;
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z, d);
  EXPECT_EQ(c.at_or(0, 0), 5u);  // falsy entry still masks structurally
  EXPECT_EQ(c.at_or(1, 0), 6u);
}

TEST(Mask, ComplementFlipsSelection) {
  auto c = Vector<U64>(6);
  const auto mask = vec({0}, {1});
  const auto u = vec({0, 1}, {5, 6});
  const auto z = Vector<U64>(6);
  Descriptor d;
  d.complement_mask = true;
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z, d);
  EXPECT_FALSE(c.at(0).has_value());
  EXPECT_EQ(c.at_or(1, 0), 6u);
}

TEST(Mask, ReplaceClearsOutsideMask) {
  auto c = vec({0, 1, 2}, {10, 20, 30});
  const auto mask = vec({1}, {1});
  const auto u = vec({1}, {99});
  const auto z = Vector<U64>(6);
  Descriptor d;
  d.replace = true;
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z, d);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.at_or(1, 0), 99u);
}

TEST(Mask, NoReplaceKeepsOutsideMask) {
  auto c = vec({0, 1, 2}, {10, 20, 30});
  const auto mask = vec({1}, {1});
  const auto u = vec({1}, {99});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z);
  EXPECT_EQ(c.at_or(0, 0), 10u);
  EXPECT_EQ(c.at_or(1, 0), 99u);
  EXPECT_EQ(c.at_or(2, 0), 30u);
}

TEST(Mask, MaskSizeMismatchThrows) {
  auto c = Vector<U64>(6);
  const auto mask = Vector<U64>(5);
  const auto u = Vector<U64>(6);
  const auto z = Vector<U64>(6);
  EXPECT_THROW(
      grb::eWiseAdd(c, &mask, NoAccum{}, grb::Plus<U64>{}, u, z),
      grb::DimensionMismatch);
}

TEST(Accum, UnmaskedAccumulation) {
  auto c = vec({0, 2}, {1, 2});
  const auto u = vec({0, 1}, {10, 20});
  const auto z = Vector<U64>(6);
  grb::eWiseAdd(c, static_cast<const Vector<U64>*>(nullptr),
                grb::Plus<U64>{}, grb::Plus<U64>{}, u, z);
  EXPECT_EQ(c.at_or(0, 0), 11u);  // accum(1, 10)
  EXPECT_EQ(c.at_or(1, 0), 20u);  // T only
  EXPECT_EQ(c.at_or(2, 0), 2u);   // C only, kept
}

TEST(MatrixMask, MaskedMxmRestrictsPattern) {
  const auto a = Matrix<U64>::build(2, 2, {{0, 0, 1}, {0, 1, 1},
                                           {1, 0, 1}, {1, 1, 1}});
  const auto mask = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  Matrix<U64> c(2, 2);
  grb::mxm(c, &mask, NoAccum{}, grb::plus_times_semiring<U64>(), a, a);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.at(0, 0).value(), 2u);

  // Structural mask over a transposed operand: the stored-but-falsy (0,0)
  // entry still admits its product.
  const auto falsy = Matrix<U64>::build(2, 2, {{0, 0, 0}, {1, 1, 1}});
  Descriptor d;
  d.structural_mask = true;
  Matrix<U64> s(2, 2);
  grb::mxm(s, &falsy, NoAccum{}, grb::plus_times_semiring<U64>(), a,
           grb::transposed(a), d);
  EXPECT_EQ(s.nvals(), 2u);
  EXPECT_EQ(s.at(0, 0).value(), 2u);
  EXPECT_EQ(s.at(1, 1).value(), 2u);
}

TEST(MatrixMask, ReplaceAndAccumOnMatrices) {
  auto c = Matrix<U64>::build(2, 2, {{0, 0, 5}, {1, 1, 7}});
  const auto mask = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  const auto t = Matrix<U64>::build(2, 2, {{0, 0, 3}});
  const Matrix<U64> z(2, 2);
  Descriptor d;
  d.replace = true;
  grb::eWiseAdd(c, &mask, grb::Plus<U64>{}, grb::Plus<U64>{}, t, z, d);
  EXPECT_EQ(c.nvals(), 1u);  // (1,1) cleared by replace
  EXPECT_EQ(c.at(0, 0).value(), 8u);
}

TEST(MatrixMask, ComplementNoMaskAdmitsNothing) {
  auto c = vec({0}, {1});
  const auto u = vec({0, 1}, {5, 6});
  const auto z = Vector<U64>(6);
  Descriptor d;
  d.complement_mask = true;
  grb::eWiseAdd(c, static_cast<const Vector<U64>*>(nullptr), NoAccum{},
                grb::Plus<U64>{}, u, z, d);
  // Complement of the absent (all-admitting) mask admits nothing; C kept.
  EXPECT_EQ(c.at_or(0, 0), 1u);
  EXPECT_EQ(c.nvals(), 1u);
}

}  // namespace
