// grb kernel microbenchmarks (google-benchmark): the operations on the Q1/Q2
// hot paths, on social-shaped (heavy-tailed) sparse matrices, at 1 and 8
// threads — quantifying the kernel-level scaling that drives the Fig. 5
// thread-count differences.
//
// The *SF benchmarks size their operands from the Table II scale-factor
// specs (nodes × nodes, edges nonzeros), so mxm / eWiseAdd / write_back
// throughput can be tracked before/after kernel-pipeline changes at
// SF ≥ 256 — and, via the Table-II extrapolation, at SF 2048 beyond the
// contest's largest dataset. CI uploads the JSON output as a
// perf-trajectory artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "datagen/scale_table.hpp"
#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Bool;
using grb::Index;
using grb::Matrix;
using grb::Vector;
using U64 = std::uint64_t;

/// Heavy-tailed random boolean matrix: column popularity is Zipf-like, the
/// same shape as the Likes / Friends matrices.
Matrix<Bool> social_matrix(Index rows, Index cols, std::size_t nnz,
                           std::uint64_t seed) {
  grbsm::support::Xoshiro256 rng(seed);
  grbsm::support::ZipfSampler zipf(cols, 0.8);
  std::vector<grb::Tuple<Bool>> tuples;
  tuples.reserve(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    tuples.push_back({rng.bounded(rows),
                      static_cast<Index>(zipf.sample(rng) - 1), Bool{1}});
  }
  return Matrix<Bool>::build(rows, cols, std::move(tuples), grb::LOr<Bool>{});
}

constexpr Index kRows = 20000;
constexpr Index kCols = 20000;
constexpr std::size_t kNnz = 200000;

void BM_Mxv(benchmark::State& state) {
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  const auto a = social_matrix(kRows, kCols, kNnz, 1);
  const auto u = Vector<U64>::dense(kCols, [](Index i) { return i % 7 + 1; });
  for (auto _ : state) {
    Vector<U64> w(kRows);
    grb::mxv(w, grb::plus_second_semiring<U64>(), a, u);
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNnz));
}
BENCHMARK(BM_Mxv)->Arg(1)->Arg(8);

void BM_Mxm(benchmark::State& state) {
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  // Likes' x NewFriends shape: tall-skinny right operand.
  const auto likes = social_matrix(kRows, kCols, kNnz, 2);
  const auto nf = social_matrix(kCols, 128, 256, 3);
  for (auto _ : state) {
    Matrix<U64> c(kRows, 128);
    grb::mxm(c, grb::plus_times_semiring<U64>(), likes, nf);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_Mxm)->Arg(1)->Arg(8);

void BM_MxmSquare(benchmark::State& state) {
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  const auto a = social_matrix(4000, 4000, 80000, 4);
  for (auto _ : state) {
    Matrix<U64> c(4000, 4000);
    grb::mxm(c, grb::plus_times_semiring<U64>(), a, a);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MxmSquare)->Arg(1)->Arg(8);

void BM_ReduceRows(benchmark::State& state) {
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  const auto a = social_matrix(kRows, kCols, kNnz, 5);
  for (auto _ : state) {
    Vector<U64> w(kRows);
    grb::reduce_rows(w, grb::plus_monoid<U64>(), a);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_ReduceRows)->Arg(1)->Arg(8);

void BM_EwiseAddVectors(benchmark::State& state) {
  grbsm::support::Xoshiro256 rng(6);
  std::vector<Index> ia, ib;
  std::vector<U64> va, vb;
  for (Index i = 0; i < kRows; ++i) {
    if (rng.chance(0.5)) {
      ia.push_back(i);
      va.push_back(i);
    }
    if (rng.chance(0.5)) {
      ib.push_back(i);
      vb.push_back(i * 2);
    }
  }
  const auto u = Vector<U64>::build(kRows, ia, va);
  const auto v = Vector<U64>::build(kRows, ib, vb);
  for (auto _ : state) {
    Vector<U64> w(kRows);
    grb::eWiseAdd(w, grb::Plus<U64>{}, u, v);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_EwiseAddVectors);

void BM_Transpose(benchmark::State& state) {
  const auto a = social_matrix(kRows, kCols, kNnz, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::transposed(a));
  }
}
BENCHMARK(BM_Transpose);

void BM_ExtractSubmatrix(benchmark::State& state) {
  // The Q2 hot path: small induced subgraph out of a large Friends matrix.
  const auto friends = social_matrix(kCols, kCols, kNnz, 8);
  grbsm::support::Xoshiro256 rng(9);
  std::vector<Index> idx;
  const Index fan = static_cast<Index>(state.range(0));
  for (Index k = 0; k < fan; ++k) {
    idx.push_back(rng.bounded(kCols));
  }
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::extract_submatrix(friends, idx, idx));
  }
}
BENCHMARK(BM_ExtractSubmatrix)->Arg(8)->Arg(64)->Arg(512);

void BM_EwiseAddMatrix(benchmark::State& state) {
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  const auto a = social_matrix(kRows, kCols, kNnz, 12);
  const auto b = social_matrix(kRows, kCols, kNnz, 13);
  for (auto _ : state) {
    Matrix<U64> c(kRows, kCols);
    grb::eWiseAdd(c, grb::Plus<U64>{}, a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kNnz));
}
BENCHMARK(BM_EwiseAddMatrix)->Arg(1)->Arg(8);

void BM_WriteBackMasked(benchmark::State& state) {
  // The C<M> (+)= T output merge in isolation: masked + accumulated +
  // replace, the heaviest descriptor combination the queries use.
  grb::ThreadGuard guard(static_cast<int>(state.range(0)));
  const auto base = social_matrix(kRows, kCols, kNnz, 14);
  const auto t = social_matrix(kRows, kCols, kNnz, 15);
  const auto mask = social_matrix(kRows, kCols, kNnz / 2, 16);
  grb::Descriptor desc;
  desc.replace = true;
  const Matrix<Bool> zero(kRows, kCols);
  for (auto _ : state) {
    Matrix<Bool> c = base;
    grb::eWiseAdd(c, &mask, grb::LOr<Bool>{}, grb::LOr<Bool>{}, t, zero,
                  desc);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kNnz + kNnz / 2));
}
BENCHMARK(BM_WriteBackMasked)->Arg(1)->Arg(8);

// --- Table II scale-factor sweeps (SF >= 256) ------------------------------
// Operands shaped like the SF's Likes matrix: nodes × nodes with `edges`
// nonzeros. Args: (scale factor, threads).

Matrix<Bool> sf_matrix(unsigned sf, std::uint64_t seed) {
  const auto spec = datagen::spec_for(sf);
  return social_matrix(static_cast<Index>(spec.nodes),
                       static_cast<Index>(spec.nodes), spec.edges, seed);
}

void BM_MxmSF(benchmark::State& state) {
  const auto sf = static_cast<unsigned>(state.range(0));
  grb::ThreadGuard guard(static_cast<int>(state.range(1)));
  const auto likes = sf_matrix(sf, 17);
  // Tall-skinny right operand, the Likes' × NewFriends shape.
  const auto nf = social_matrix(likes.ncols(), 128, 512, 18);
  for (auto _ : state) {
    Matrix<U64> c(likes.nrows(), 128);
    grb::mxm(c, grb::plus_times_semiring<U64>(), likes, nf);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MxmSF)->Args({256, 1})->Args({256, 8})->Args({512, 1})->Args({512, 8});

void BM_EwiseAddMatrixSF(benchmark::State& state) {
  const auto sf = static_cast<unsigned>(state.range(0));
  grb::ThreadGuard guard(static_cast<int>(state.range(1)));
  const auto a = sf_matrix(sf, 19);
  const auto b = sf_matrix(sf, 20);
  for (auto _ : state) {
    Matrix<Bool> c(a.nrows(), a.ncols());
    grb::eWiseAdd(c, grb::LOr<Bool>{}, a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_EwiseAddMatrixSF)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8});

void BM_WriteBackMaskedSF(benchmark::State& state) {
  const auto sf = static_cast<unsigned>(state.range(0));
  grb::ThreadGuard guard(static_cast<int>(state.range(1)));
  const auto base = sf_matrix(sf, 21);
  const auto t = sf_matrix(sf, 22);
  const auto mask = sf_matrix(sf, 23);
  grb::Descriptor desc;
  desc.replace = true;
  const Matrix<Bool> zero(base.nrows(), base.ncols());
  for (auto _ : state) {
    Matrix<Bool> c = base;
    grb::eWiseAdd(c, &mask, grb::LOr<Bool>{}, grb::LOr<Bool>{}, t, zero,
                  desc);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_WriteBackMaskedSF)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8});

void BM_MxvPullSF(benchmark::State& state) {
  // The FastSV hooking shape at paper scale: dense grandparent vector pulled
  // through the SF-sized adjacency (row-major dot, dense-u dispatch).
  const auto sf = static_cast<unsigned>(state.range(0));
  grb::ThreadGuard guard(static_cast<int>(state.range(1)));
  const auto a = sf_matrix(sf, 25);
  const auto u =
      Vector<U64>::dense(a.ncols(), [](Index i) { return i % 7 + 1; });
  for (auto _ : state) {
    Vector<U64> w(a.nrows());
    grb::mxv(w, grb::min_second_semiring<U64>(), a, u);
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nvals()));
}
// SF 2048 exercises the Table-II power-law extrapolation beyond the
// contest's largest dataset (ROADMAP "scaling workload beyond Table II").
BENCHMARK(BM_MxvPullSF)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8})
    ->Args({2048, 1})
    ->Args({2048, 8});

void BM_ReduceRowsSF(benchmark::State& state) {
  // Alg. 1 line 6 at paper scale: row-wise plus-reduction through the
  // two-pass sparse pipeline.
  const auto sf = static_cast<unsigned>(state.range(0));
  grb::ThreadGuard guard(static_cast<int>(state.range(1)));
  const auto a = sf_matrix(sf, 27);
  for (auto _ : state) {
    Vector<U64> w(a.nrows());
    grb::reduce_rows(w, grb::plus_monoid<U64>(), a);
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nvals()));
}
BENCHMARK(BM_ReduceRowsSF)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8})
    ->Args({2048, 1})
    ->Args({2048, 8});

void BM_InsertRemoveBatchSF(benchmark::State& state) {
  // The incremental engine's apply path: one change set's worth of new
  // edges (40) inserted into an SF-sized social matrix in place, then
  // removed again. The positions start absent, so every iteration leaves
  // the matrix as it found it and nothing but the two updates is timed.
  const auto sf = static_cast<unsigned>(state.range(0));
  auto m = sf_matrix(sf, 10);
  grbsm::support::Xoshiro256 rng(11);
  std::vector<grb::Tuple<Bool>> batch;
  std::vector<std::pair<Index, Index>> pos;
  while (batch.size() < 40) {
    const Index r = rng.bounded(m.nrows());
    const Index c = rng.bounded(m.ncols());
    if (m.has(r, c) ||
        std::find(pos.begin(), pos.end(), std::pair{r, c}) != pos.end()) {
      continue;
    }
    batch.push_back({r, c, Bool{1}});
    pos.emplace_back(r, c);
  }
  for (auto _ : state) {
    m.insert_tuples(batch, grb::LOr<Bool>{});
    m.remove_positions(pos);
    benchmark::DoNotOptimize(m.nvals());
  }
  state.counters["nnz"] = static_cast<double>(m.nvals());
}
BENCHMARK(BM_InsertRemoveBatchSF)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
