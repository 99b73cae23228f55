#include "lagraph/bfs.hpp"

#include <cstdint>

#include "grb/detail/parallel.hpp"
#include "grb/transpose.hpp"

namespace lagraph {

using grb::Bool;
using grb::Index;

namespace {

// Direction-optimisation thresholds (Beamer's α/β). Push (vxm scatter)
// expands the frontier edge-by-edge; pull (mxv dot over Aᵀ) scans every
// vertex's in-edges against the frontier. Pull wins once the frontier's
// outgoing edges rival the unexplored edge count (α); push wins again when
// the frontier collapses to a sliver of the vertices (β). Both kernels
// produce the identical next frontier under the complemented visited mask,
// so the switch never changes results — only which direction pays.
constexpr std::uint64_t kPullAlpha = 14;
constexpr std::uint64_t kPushBeta = 24;

}  // namespace

std::vector<Index> bfs_levels(const grb::Matrix<Bool>& adj, Index source) {
  if (adj.nrows() != adj.ncols()) {
    throw grb::DimensionMismatch("bfs_levels: adjacency must be square");
  }
  const Index n = adj.nrows();
  if (source >= n) {
    throw grb::IndexOutOfBounds("bfs_levels: source " + std::to_string(source));
  }
  std::vector<Index> level(n, kUnreachable);
  level[source] = 0;

  // visited doubles as the (complemented) mask; frontier is q.
  grb::Vector<Bool> visited = grb::Vector<Bool>::build(n, {source}, {Bool{1}});
  grb::Vector<Bool> frontier = visited;
  const auto sr = grb::lor_land_semiring<Bool>();
  grb::Descriptor not_visited;
  not_visited.complement_mask = true;
  not_visited.replace = true;

  // The pull kernel needs the transposed adjacency (successors live in Aᵀ's
  // rows); it is built lazily on the first pull level.
  grb::Matrix<Bool> adj_t;
  bool have_adj_t = false;
  bool pulling = false;
  std::uint64_t unexplored_edges =
      static_cast<std::uint64_t>(adj.nvals()) - adj.row_degree(source);

  for (Index depth = 1; frontier.nvals() > 0 && depth <= n; ++depth) {
    if (!pulling) {
      // Frontier out-degree: the work a push level would do. Only the
      // push→pull decision needs it, so pull levels skip the scan.
      std::uint64_t frontier_edges = 0;
      for (const Index i : frontier.indices()) {
        frontier_edges += adj.row_degree(i);
      }
      pulling = frontier_edges * kPullAlpha > unexplored_edges;
    } else {
      pulling = static_cast<std::uint64_t>(frontier.nvals()) * kPushBeta >
                static_cast<std::uint64_t>(n);
    }

    // next<!visited,replace> = frontier ⊕.⊗ A — push scatters the frontier
    // rows, pull dots every candidate's in-edges (Aᵀ rows) against it.
    grb::Vector<Bool> next(n);
    if (pulling) {
      if (!have_adj_t) {
        adj_t = grb::transposed(adj);
        have_adj_t = true;
      }
      grb::mxv(next, &visited, grb::NoAccum{}, sr, adj_t, frontier,
               not_visited);
    } else {
      grb::vxm(next, &visited, grb::NoAccum{}, sr, frontier, adj, not_visited);
    }
    if (next.nvals() == 0) break;
    const auto ni = next.indices();
    grb::detail::parallel_for(static_cast<Index>(ni.size()),
                              [&](Index k) { level[ni[k]] = depth; });
    for (const Index i : ni) {
      unexplored_edges -= adj.row_degree(i);
    }
    // visited |= next
    grb::eWiseAdd(visited, grb::LOr<Bool>{}, visited, next);
    frontier = std::move(next);
  }
  return level;
}

}  // namespace lagraph
