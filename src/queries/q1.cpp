#include "queries/q1.hpp"

namespace queries {

using U64 = std::uint64_t;

grb::Vector<U64> q1_batch_scores(const GrbState& state) {
  const auto& root_post = state.root_post();
  const Index np = root_post.nrows();

  // Line 6: sum ← row-wise ⊕ of RootPost (# comments per post).
  grb::Vector<U64> sum(np);
  grb::reduce_rows(sum, grb::plus_monoid<U64>(), root_post);

  // Line 7: repliesScores ← 10 × sum (GrB_apply with a bound scalar).
  grb::Vector<U64> replies_scores(np);
  grb::apply(replies_scores, grb::TimesScalar<U64>{10}, sum);

  // Line 8: likesScore ← RootPost ⊕.⊗ likesCount (plus_second semiring:
  // RootPost is boolean, so the product sums the selected counts).
  grb::Vector<U64> likes_score(np);
  grb::mxv(likes_score, grb::plus_second_semiring<U64>(), root_post,
           state.likes_count());

  // Line 9: scores ← repliesScores ⊕ likesScore.
  grb::Vector<U64> scores(np);
  grb::eWiseAdd(scores, grb::Plus<U64>{}, replies_scores, likes_score);
  return scores;
}

grb::Vector<U64> q1_incremental_update(const GrbState& state,
                                       const GrbDelta& delta,
                                       grb::Vector<U64>& scores) {
  const Index np = state.num_posts();
  scores.resize(np);

  // Line 9: sum ← row-wise ⊕ of ΔRootPost (# new comments per post).
  grb::Vector<U64> sum(np);
  grb::reduce_rows(sum, grb::plus_monoid<U64>(), delta.delta_root_post);

  // Line 10: repliesScores⁺ ← 10 × sum.
  grb::Vector<U64> replies_plus(np);
  grb::apply(replies_plus, grb::TimesScalar<U64>{10}, sum);

  // Line 11: likesScore⁺ ← RootPost′ ⊕.⊗ likesCount⁺ — new likes are summed
  // per post via the *full* RootPost matrix so likes on old comments are
  // credited to their posts too.
  grb::Vector<U64> likes_plus(np);
  grb::mxv(likes_plus, grb::plus_second_semiring<U64>(), state.root_post(),
           delta.likes_count_plus);

  // Line 12: scores⁺ ← repliesScores⁺ ⊕ likesScore⁺.
  grb::Vector<U64> score_plus(np);
  grb::eWiseAdd(score_plus, grb::Plus<U64>{}, replies_plus, likes_plus);

  // Line 13: scores′ ← scores ⊕ scores⁺.
  grb::eWiseAdd(scores, grb::Plus<U64>{}, scores, score_plus);

  // Removal extension (future-work item (1)): scores⁻ ← RootPost′ ⊕.⊗
  // likesCount⁻, subtracted from the running totals. A post with a removed
  // like always has a positive score entry (it counted that like), so the
  // union semantics of eWiseAdd(Minus) only ever hit the intersection.
  grb::Vector<U64> score_minus(np);
  if (delta.likes_count_minus.nvals() > 0) {
    grb::mxv(score_minus, grb::plus_second_semiring<U64>(), state.root_post(),
             delta.likes_count_minus);
    grb::eWiseAdd(scores, grb::Minus<U64>{}, scores, score_minus);
  }

  // Line 14: Δscores⟨scores⁺ ∪ scores⁻⟩ ← scores′ — the updated totals,
  // restricted to the posts whose score changed (structural mask over the
  // union of the positive and negative increments).
  grb::Vector<U64> changed_mask(np);
  grb::eWiseAdd(changed_mask, grb::LOr<U64>{}, score_plus, score_minus);
  grb::Vector<U64> delta_scores(np);
  grb::Descriptor structural;
  structural.structural_mask = true;
  grb::assign(delta_scores, &changed_mask, grb::NoAccum{}, scores,
              structural);
  return delta_scores;
}

}  // namespace queries
