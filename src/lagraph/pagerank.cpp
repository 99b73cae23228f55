#include "lagraph/pagerank.hpp"

#include <cmath>

#include "grb/detail/parallel.hpp"
#include "grb/transpose.hpp"

namespace lagraph {

using grb::Bool;
using grb::Index;

PageRankResult pagerank(const grb::Matrix<Bool>& adj,
                        const PageRankOptions& options) {
  if (adj.nrows() != adj.ncols()) {
    throw grb::DimensionMismatch("pagerank: adjacency must be square");
  }
  const Index n = adj.nrows();
  PageRankResult result;
  if (n == 0) return result;

  // Out-degrees and the pull-direction matrix (Aᵀ: incoming edges per row).
  std::vector<double> inv_outdeg(n, 0.0);
  for (Index i = 0; i < n; ++i) {
    const auto deg = adj.row_degree(i);
    if (deg > 0) inv_outdeg[i] = 1.0 / static_cast<double>(deg);
  }
  auto at = grb::transposed(adj);

  const double d = options.damping;
  const double base = (1.0 - d) / static_cast<double>(n);
  std::vector<double> r(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);

  for (result.iterations = 1; result.iterations <= options.max_iterations;
       ++result.iterations) {
    // Dangling mass: vertices without out-edges spread uniformly. Folded
    // over the fixed chunk grid so the double summation order — and hence
    // the iterate sequence — is identical at every thread count.
    const double dangling = grb::detail::parallel_fold<double>(
        n, 0.0,
        [&](Index lo, Index hi) {
          double s = 0.0;
          for (Index i = lo; i < hi; ++i) {
            if (inv_outdeg[i] == 0.0) s += r[i];
          }
          return s;
        },
        [](double x, double y) { return x + y; });
    const double redistributed =
        d * dangling / static_cast<double>(n) + base;
    // next = base + d · Σ_{j -> i} r(j)/outdeg(j); the sum is a row scan of
    // Aᵀ — exactly the plus_times mxv pull kernel, row-parallel (each row's
    // accumulation order is its column order, independent of the team).
    grb::detail::parallel_for(
        n,
        [&](Index i) {
          double acc = 0.0;
          for (const Index j : at.row_cols(i)) {
            acc += r[j] * inv_outdeg[j];
          }
          next[i] = redistributed + d * acc;
        },
        at.nvals());
    const double delta = grb::detail::parallel_fold<double>(
        n, 0.0,
        [&](Index lo, Index hi) {
          double s = 0.0;
          for (Index i = lo; i < hi; ++i) s += std::abs(next[i] - r[i]);
          return s;
        },
        [](double x, double y) { return x + y; });
    r.swap(next);
    if (delta < options.tolerance) break;
  }
  result.rank = std::move(r);
  return result;
}

}  // namespace lagraph
