#include "lagraph/cc_fastsv.hpp"

#include <unordered_map>

#include "grb/detail/parallel.hpp"

namespace lagraph {

using grb::Index;

std::vector<Index> cc_fastsv(const grb::Matrix<grb::Bool>& adj) {
  if (adj.nrows() != adj.ncols()) {
    throw grb::DimensionMismatch("cc_fastsv: adjacency must be square");
  }
  const Index n = adj.nrows();
  std::vector<Index> f(n);   // parent (the result)
  std::vector<Index> gf(n);  // grandparent
  for (Index i = 0; i < n; ++i) {
    f[i] = i;
    gf[i] = i;
  }
  if (n == 0 || adj.nvals() == 0) return f;

  const auto sr = grb::min_second_semiring<Index>();
  grb::Vector<Index> mngf(n);
  bool changed = true;
  while (changed) {
    changed = false;
    // mngf(i) = min_{j : A(i,j) present} gf(j)   (LAGraph: GrB_mxv)
    auto gf_vec = grb::Vector<Index>::dense(n, [&](Index i) { return gf[i]; });
    grb::mxv(mngf, sr, adj, gf_vec);

    const auto mi = mngf.indices();
    const auto mv = mngf.values();
    // Stochastic hooking: f[f[i]] = min(f[f[i]], mngf[i]) — hang i's tree
    // root under the smallest grandparent seen in i's neighborhood.
    for (std::size_t k = 0; k < mi.size(); ++k) {
      const Index i = mi[k];
      const Index root = f[i];
      if (mv[k] < f[root]) {
        f[root] = mv[k];
        changed = true;
      }
    }
    // Aggressive hooking: f[i] = min(f[i], mngf[i]).
    for (std::size_t k = 0; k < mi.size(); ++k) {
      const Index i = mi[k];
      if (mv[k] < f[i]) {
        f[i] = mv[k];
        changed = true;
      }
    }
    // Shortcutting: f[i] = min(f[i], gf[i]) — path halving. Each slot only
    // touches its own f[i]/gf[i], so the sweep is parallel; the change flag
    // folds over the fixed chunk grid.
    changed |= grb::detail::parallel_fold<int>(
        n, 0,
        [&](Index lo, Index hi) {
          int ch = 0;
          for (Index i = lo; i < hi; ++i) {
            if (gf[i] < f[i]) {
              f[i] = gf[i];
              ch = 1;
            }
          }
          return ch;
        },
        [](int x, int y) { return x | y; }) != 0;
    // Recompute grandparents; converged when gf is a fixed point. Reads f
    // (stable here), writes only gf[i] — also a parallel sweep.
    changed |= grb::detail::parallel_fold<int>(
        n, 0,
        [&](Index lo, Index hi) {
          int ch = 0;
          for (Index i = lo; i < hi; ++i) {
            const Index next = f[f[i]];
            if (next != gf[i]) {
              gf[i] = next;
              ch = 1;
            }
          }
          return ch;
        },
        [](int x, int y) { return x | y; }) != 0;
  }
  return f;
}

std::vector<Index> component_sizes(const std::vector<Index>& labels) {
  std::unordered_map<Index, Index> counts;
  counts.reserve(labels.size());
  for (const Index l : labels) {
    ++counts[l];
  }
  std::vector<Index> sizes;
  sizes.reserve(counts.size());
  for (const auto& [label, count] : counts) {
    sizes.push_back(count);
  }
  return sizes;
}

std::uint64_t sum_squared_component_sizes(const std::vector<Index>& labels) {
  std::uint64_t total = 0;
  for (const Index s : component_sizes(labels)) {
    total += static_cast<std::uint64_t>(s) * static_cast<std::uint64_t>(s);
  }
  return total;
}

}  // namespace lagraph
