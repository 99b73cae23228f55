// Differential parallel-equivalence harness: every vector kernel is run at
// Context thread counts {1, 2, hardware} on seeded random inputs and the
// outputs are asserted bit-identical (operator== compares the sorted
// index/value arrays directly) against the single-thread reference.
//
// This is the contract the two-pass sparse pipeline makes: the chunk grid
// and per-chunk work order depend only on operand shapes, never the
// delivered team. Explicitly pinned thread counts are honoured above the
// visible processor count (grb::threads_pinned), so this suite drives real
// multi-thread teams even on single-core CI runners; with OpenMP off every
// count degrades to the same serial path and the assertions hold trivially.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "grb/detail/parallel.hpp"
#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Bool;
using grb::Index;
using grb::Matrix;
using grb::Vector;
using grbsm::support::Xoshiro256;
using U64 = std::uint64_t;

// Above detail::kParallelThreshold so the parallel branches actually run.
constexpr Index kN = 10000;
constexpr int kSeeds = 50;

int hardware_threads() {
  // The unpinned default (all hardware threads), floored at 4 so small CI
  // runners still exercise a real team via deliberate oversubscription.
  const int hw = grb::threads();
  return hw < 4 ? 4 : hw;
}

/// Runs `make_output` at 1, 2, and hardware_threads() and asserts the 2-
/// and hw-thread results equal the single-thread reference bit for bit.
template <typename F>
void expect_thread_invariant(F&& make_output, const char* what, int seed) {
  decltype(make_output()) ref;
  {
    grb::ThreadGuard guard(1);
    ref = make_output();
  }
  for (const int t : {2, hardware_threads()}) {
    grb::ThreadGuard guard(t);
    const auto got = make_output();
    EXPECT_EQ(ref, got) << what << ": thread count " << t
                        << " diverged from serial (seed " << seed << ")";
  }
}

Vector<U64> random_vector(Xoshiro256& rng, Index n, double density) {
  std::vector<Index> idx;
  std::vector<U64> val;
  for (Index i = 0; i < n; ++i) {
    if (rng.chance(density)) {
      idx.push_back(i);
      val.push_back(rng.range(0, 1000));
    }
  }
  return Vector<U64>::build(n, std::move(idx), std::move(val));
}

Vector<Bool> random_mask(Xoshiro256& rng, Index n, double density) {
  std::vector<Index> idx;
  std::vector<Bool> val;
  for (Index i = 0; i < n; ++i) {
    if (rng.chance(density)) {
      idx.push_back(i);
      // Include false entries so value vs structural masking differ.
      val.push_back(rng.chance(0.7) ? Bool{1} : Bool{0});
    }
  }
  return Vector<Bool>::build(n, std::move(idx), std::move(val));
}

Matrix<U64> random_matrix(Xoshiro256& rng, Index nrows, Index ncols,
                          std::size_t nnz) {
  std::vector<grb::Tuple<U64>> tuples;
  tuples.reserve(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    tuples.push_back({rng.bounded(nrows), rng.bounded(ncols),
                      rng.range(1, 100)});
  }
  return Matrix<U64>::build(nrows, ncols, std::move(tuples), grb::Plus<U64>{});
}

grb::Descriptor random_descriptor(Xoshiro256& rng) {
  grb::Descriptor desc;
  desc.replace = rng.chance(0.5);
  desc.complement_mask = rng.chance(0.5);
  desc.structural_mask = rng.chance(0.5);
  return desc;
}

TEST(ParallelEquivalence, MxvPullDense) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(1000 + seed);
    const auto a = random_matrix(rng, kN, kN, 5 * kN);
    const auto u = random_vector(rng, kN, 0.5);  // dense-dispatch side
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::mxv(w, grb::plus_second_semiring<U64>(), a, u);
          return w;
        },
        "mxv pull (dense u)", seed);
  }
}

TEST(ParallelEquivalence, MxvPullSparse) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(2000 + seed);
    const auto a = random_matrix(rng, kN, kN, 5 * kN);
    const auto u = random_vector(rng, kN, 0.01);  // sparse-dispatch side
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::mxv(w, grb::min_second_semiring<U64>(), a, u);
          return w;
        },
        "mxv pull (sparse u)", seed);
  }
}

TEST(ParallelEquivalence, MxvMasked) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(3000 + seed);
    const auto a = random_matrix(rng, kN, kN, 5 * kN);
    const auto u = random_vector(rng, kN, 0.3);
    const auto mask = random_mask(rng, kN, 0.4);
    const auto desc = random_descriptor(rng);
    const auto base = random_vector(rng, kN, 0.3);
    expect_thread_invariant(
        [&] {
          Vector<U64> w = base;
          grb::mxv(w, &mask, grb::Plus<U64>{}, grb::plus_times_semiring<U64>(),
                   a, u, desc);
          return w;
        },
        "mxv masked+accum", seed);
  }
}

TEST(ParallelEquivalence, ReduceRows) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(6000 + seed);
    const auto a = random_matrix(rng, kN, kN, 5 * kN);
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::reduce_rows(w, grb::plus_monoid<U64>(), a);
          return w;
        },
        "reduce_rows", seed);
  }
}

TEST(ParallelEquivalence, ReduceScalar) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(8000 + seed);
    const auto a = random_matrix(rng, kN, kN, 5 * kN);
    const auto u = random_vector(rng, kN, 0.5);
    expect_thread_invariant(
        [&] {
          return std::pair{
              grb::reduce_scalar<U64>(grb::plus_monoid<U64>(), a),
              grb::reduce_scalar<U64>(grb::max_monoid<U64>(), u)};
        },
        "reduce_scalar", seed);
  }
}

TEST(ParallelEquivalence, ParallelFold) {
  // The fixed-grid fold FastSV's shortcut sweeps use, over several chunks:
  // it equals a serial sum at every thread count.
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(8000 + seed);
    std::vector<U64> vals(kN);
    for (auto& v : vals) v = rng.range(0, 1000);
    U64 serial = 0;
    for (const U64 v : vals) serial += v;
    const auto fold = [&] {
      return grb::detail::parallel_fold<U64>(
          kN, U64{0},
          [&](Index lo, Index hi) {
            U64 s = 0;
            for (Index k = lo; k < hi; ++k) s += vals[k];
            return s;
          },
          [](U64 x, U64 y) { return x + y; });
    };
    EXPECT_EQ(fold(), serial) << "seed " << seed;
    expect_thread_invariant(fold, "parallel_fold", seed);
  }
}

TEST(ParallelEquivalence, EwiseAddVector) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(9000 + seed);
    const auto u = random_vector(rng, kN, 0.5);
    const auto v = random_vector(rng, kN, 0.5);
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::eWiseAdd(w, grb::Plus<U64>{}, u, v);
          return w;
        },
        "eWiseAdd vector", seed);
  }
}

TEST(ParallelEquivalence, EwiseMultVector) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(10000 + seed);
    const auto u = random_vector(rng, kN, 0.5);
    const auto v = random_vector(rng, kN, 0.5);
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::eWiseMult(w, grb::Times<U64>{}, u, v);
          return w;
        },
        "eWiseMult vector", seed);
  }
}

TEST(ParallelEquivalence, ApplyVector) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(11000 + seed);
    const auto u = random_vector(rng, kN, 0.6);
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::apply(w, grb::TimesScalar<U64>{10}, u);
          return w;
        },
        "apply vector", seed);
  }
}

TEST(ParallelEquivalence, AssignMasked) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(12000 + seed);
    const auto base = random_vector(rng, kN, 0.4);
    const auto u = random_vector(rng, kN, 0.4);
    const auto mask = random_mask(rng, kN, 0.4);
    const auto desc = random_descriptor(rng);
    expect_thread_invariant(
        [&] {
          Vector<U64> w = base;
          grb::assign(w, &mask, grb::Plus<U64>{}, u, desc);
          return w;
        },
        "assign masked", seed);
  }
}

TEST(ParallelEquivalence, AssignSubset) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(13000 + seed);
    const auto base = random_vector(rng, kN, 0.4);
    // A sorted subset map of half the positions.
    std::vector<Index> idx;
    for (Index i = 0; i < kN; i += 2) idx.push_back(i);
    const auto u = random_vector(rng, static_cast<Index>(idx.size()), 0.5);
    expect_thread_invariant(
        [&] {
          Vector<U64> w = base;
          grb::assign_subset(w, grb::NoAccum{}, idx, u);
          return w;
        },
        "assign subset", seed);
  }
}

TEST(ParallelEquivalence, ExtractSubvector) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(14000 + seed);
    const auto u = random_vector(rng, kN, 0.5);
    std::vector<Index> idx;
    for (Index k = 0; k < kN; ++k) idx.push_back(rng.bounded(kN));
    expect_thread_invariant(
        [&] {
          Vector<U64> w(static_cast<Index>(idx.size()));
          grb::extract(w, u, idx);
          return w;
        },
        "extract subvector", seed);
  }
}

TEST(ParallelEquivalence, SelectVector) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Xoshiro256 rng(15000 + seed);
    const auto u = random_vector(rng, kN, 0.6);
    const U64 cutoff = rng.range(100, 900);
    expect_thread_invariant(
        [&] {
          Vector<U64> w(kN);
          grb::select(
              w, [&](Index, Index, const U64& x) { return x >= cutoff; }, u);
          return w;
        },
        "select vector", seed);
  }
}

}  // namespace
