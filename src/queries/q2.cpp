#include "queries/q2.hpp"

#include <algorithm>

#include "grb/detail/parallel.hpp"
#include "grb/detail/sparse_builder.hpp"
#include "lagraph/cc_fastsv.hpp"

namespace queries {

using U64 = std::uint64_t;

U64 q2_comment_score(const GrbState& state, Index comment) {
  // Step 1 (per comment): the users who like this comment — one row of the
  // Likes matrix, already sorted.
  const auto likers = state.likes().row_cols(comment);
  if (likers.empty()) return 0;
  // Step 2: induced friendship subgraph.
  auto sub = grb::extract_submatrix(state.friends(), likers, likers);
  // Step 3: connected components via FastSV (LAGraph).
  const auto labels = lagraph::cc_fastsv(sub);
  // Step 4: Σ (component size)².
  return lagraph::sum_squared_component_sizes(labels);
}

grb::Vector<U64> q2_batch_scores(const GrbState& state) {
  const Index nc = state.num_comments();
  std::vector<U64> scores(nc, 0);
  // OpenMP parallelism at comment granularity (paper, Sec. IV). The helper
  // respects grb::set_threads, which the harness uses to pin 1 vs 8 threads.
  grb::detail::parallel_for(
      nc, [&](Index c) { scores[c] = q2_comment_score(state, c); },
      state.likes().nvals() + nc);

  return grb::detail::compact_dense<U64>(
      nc, [&](Index c) { return scores[c] != 0; },
      [&](Index c) { return scores[c]; });
}

std::vector<Index> q2_affected_comments(const GrbState& state,
                                        const GrbDelta& delta) {
  std::vector<Index> affected;

  // Steps 1-4 of Fig. 4b for a friendship incidence matrix: AC = Likes′
  // ⊕.⊗ F counts how many endpoints of each friendship like each comment;
  // cells equal to 2 mean both do, so that friendship's change (merge on
  // insert, potential split on removal) is inside the comment's subgraph.
  const auto incidence_hits = [&](const grb::Matrix<grb::Bool>& inc) {
    if (inc.ncols() == 0) return;
    grb::Matrix<U64> ac(state.num_comments(), inc.ncols());
    grb::mxm(ac, grb::plus_times_semiring<U64>(), state.likes(), inc);
    grb::select(ac, grb::ValueEq<U64>{2}, ac);
    grb::Vector<U64> ac_vec(state.num_comments());
    grb::reduce_rows(ac_vec, grb::lor_monoid<U64>(), ac);
    affected.insert(affected.end(), ac_vec.indices().begin(),
                    ac_vec.indices().end());
  };
  incidence_hits(delta.new_friends);
  // Removal extension: a removed friendship affects comments both ex-friends
  // still like (their component may split).
  incidence_hits(delta.removed_friends);

  // Step 5: ∪ new comments ∪ comments with new likes ∪ comments that lost
  // likes (removal extension).
  affected.insert(affected.end(), delta.new_comments.begin(),
                  delta.new_comments.end());
  const auto liked = delta.likes_count_plus.indices();
  affected.insert(affected.end(), liked.begin(), liked.end());
  const auto unliked = delta.likes_count_minus.indices();
  affected.insert(affected.end(), unliked.begin(), unliked.end());

  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected;
}

grb::Vector<U64> q2_incremental_update(const GrbState& state,
                                       const GrbDelta& delta,
                                       grb::Vector<U64>& scores) {
  const Index nc = state.num_comments();
  scores.resize(nc);

  const std::vector<Index> affected = q2_affected_comments(state, delta);

  // Steps 6-9: reevaluate only the affected comments with the batch kernel
  // (OpenMP at comment granularity, as in the batch variant).
  std::vector<U64> rescored(affected.size(), 0);
  grb::detail::parallel_for(
      static_cast<Index>(affected.size()),
      [&](Index k) { rescored[k] = q2_comment_score(state, affected[k]); },
      state.likes().nvals());

  // Δscores: affected entries whose value actually changed.
  std::vector<Index> changed_idx;
  std::vector<U64> changed_val;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    const Index c = affected[k];
    if (scores.at_or(c, 0) != rescored[k]) {
      changed_idx.push_back(c);
      changed_val.push_back(rescored[k]);
    }
  }
  auto delta_scores = grb::Vector<U64>::adopt_sorted(
      nc, std::move(changed_idx), std::move(changed_val));

  // scores′: merge the new values in (new value wins).
  grb::eWiseAdd(scores, grb::Second<U64>{}, scores, delta_scores);
  return delta_scores;
}

}  // namespace queries
