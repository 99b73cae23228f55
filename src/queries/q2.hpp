// Q2 "influential comments": for each comment, the friendship subgraph
// induced by the users who like it is decomposed into connected components;
// score(c) = Σ (component size)². Batch evaluation follows the upper half
// of the paper's Fig. 4b (extractTuples → extract submatrix → FastSV →
// squared component sizes), parallelised with OpenMP at the granularity of
// comments exactly as the paper describes. Incremental evaluation follows
// the lower half: the NewFriends incidence trick (Steps 1-4) plus new
// comments and newly-liked comments form the affected set (Step 5), which
// is then rescored with the batch kernel (Steps 6-9).
#pragma once

#include <cstdint>
#include <vector>

#include "queries/grb_state.hpp"

namespace queries {

/// Score of a single comment (Steps 2-4 of Fig. 4b for one comment).
std::uint64_t q2_comment_score(const GrbState& state, Index comment);

/// Full evaluation: scores for all comments (sparse; comments nobody likes
/// have no entry). OpenMP-parallel over comments, bounded by grb::threads().
grb::Vector<std::uint64_t> q2_batch_scores(const GrbState& state);

/// Steps 1-5 of Fig. 4b: the set of comments whose score may have changed —
/// new comments ∪ comments with new likes ∪ comments where a new friendship
/// connects two likers. Sorted, unique.
std::vector<Index> q2_affected_comments(const GrbState& state,
                                        const GrbDelta& delta);

/// Incremental maintenance: rescoers only the affected comments, updates
/// `scores` in place (resizing to the new comment count) and returns
/// Δscores — the affected entries whose value actually changed.
grb::Vector<std::uint64_t> q2_incremental_update(
    const GrbState& state, const GrbDelta& delta,
    grb::Vector<std::uint64_t>& scores);

}  // namespace queries
