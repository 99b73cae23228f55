// Q2 unit and property tests: per-comment scoring, the affected-set logic of
// Fig. 4b steps 1-5, and incremental-vs-batch equivalence on change streams.
#include <gtest/gtest.h>

#include "datagen/generator.hpp"
#include "nmf/nmf_batch.hpp"
#include "queries/grb_state.hpp"
#include "queries/q2.hpp"

namespace {

using grb::Index;
using queries::GrbState;
using U64 = std::uint64_t;

sm::SocialGraph base_graph() {
  sm::SocialGraph g;
  for (sm::NodeId u = 100; u < 106; ++u) g.add_user(u);
  g.add_post(1, 0);
  g.add_comment(10, 1, false, 1);
  g.add_comment(11, 2, false, 1);
  return g;
}

TEST(Q2Score, NoLikersMeansZero) {
  const auto state = GrbState::from_graph(base_graph());
  EXPECT_EQ(queries::q2_comment_score(state, 0), 0u);
}

TEST(Q2Score, IsolatedLikersScoreOneEach) {
  auto g = base_graph();
  g.add_likes(100, 10);
  g.add_likes(101, 10);
  g.add_likes(102, 10);
  const auto state = GrbState::from_graph(g);
  EXPECT_EQ(queries::q2_comment_score(state, 0), 3u);  // 1²+1²+1²
}

TEST(Q2Score, FriendshipsOutsideFanSetIgnored) {
  auto g = base_graph();
  g.add_likes(100, 10);
  g.add_likes(101, 10);
  g.add_friendship(100, 102);  // 102 does not like c10
  g.add_friendship(102, 101);  // indirect path through outsider: irrelevant
  const auto state = GrbState::from_graph(g);
  EXPECT_EQ(queries::q2_comment_score(state, 0), 2u);  // two singletons
}

TEST(Q2Score, ComponentSizesSquareAndSum) {
  auto g = base_graph();
  for (sm::NodeId u = 100; u < 105; ++u) g.add_likes(u, 10);
  g.add_friendship(100, 101);
  g.add_friendship(101, 102);  // component of 3
  g.add_friendship(103, 104);  // component of 2
  const auto state = GrbState::from_graph(g);
  EXPECT_EQ(queries::q2_comment_score(state, 0), 9u + 4u);
}

TEST(Q2Batch, ScoresAllComments) {
  auto g = base_graph();
  g.add_likes(100, 10);
  g.add_likes(100, 11);
  g.add_likes(101, 11);
  g.add_friendship(100, 101);
  const auto scores = queries::q2_batch_scores(GrbState::from_graph(g));
  EXPECT_EQ(scores.at_or(0, 0), 1u);
  EXPECT_EQ(scores.at_or(1, 0), 4u);
}

TEST(Q2Affected, NewCommentIsAffected) {
  auto state = GrbState::from_graph(base_graph());
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddComment{12, 3, false, 1, 100});
  const auto delta = state.apply_change_set(cs);
  const auto affected = queries::q2_affected_comments(state, delta);
  EXPECT_EQ(affected, (std::vector<Index>{2}));
}

TEST(Q2Affected, NewLikeMarksItsComment) {
  auto state = GrbState::from_graph(base_graph());
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddLikes{100, 11});
  const auto delta = state.apply_change_set(cs);
  const auto affected = queries::q2_affected_comments(state, delta);
  EXPECT_EQ(affected, (std::vector<Index>{1}));
}

TEST(Q2Affected, FriendshipOnlyAffectsCommentsBothLike) {
  auto g = base_graph();
  g.add_likes(100, 10);  // c10 ← u100
  g.add_likes(101, 10);  // c10 ← u101
  g.add_likes(100, 11);  // c11 ← u100 only
  auto state = GrbState::from_graph(g);
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddFriendship{100, 101});
  const auto delta = state.apply_change_set(cs);
  const auto affected = queries::q2_affected_comments(state, delta);
  // Only c10 has both endpoints in its fan set (the AC = 2 rule).
  EXPECT_EQ(affected, (std::vector<Index>{0}));
}

TEST(Q2Affected, FriendshipBetweenNonLikersAffectsNothing) {
  auto g = base_graph();
  g.add_likes(100, 10);
  auto state = GrbState::from_graph(g);
  sm::ChangeSet cs;
  cs.ops.push_back(sm::AddFriendship{102, 103});
  const auto delta = state.apply_change_set(cs);
  EXPECT_TRUE(queries::q2_affected_comments(state, delta).empty());
}

TEST(Q2Incremental, DeltaOnlyReportsActualChanges) {
  auto g = base_graph();
  g.add_likes(100, 10);
  g.add_likes(101, 10);
  g.add_friendship(100, 101);  // already one component
  auto state = GrbState::from_graph(g);
  auto scores = queries::q2_batch_scores(state);
  sm::ChangeSet cs;
  // New friendship between users already connected inside the fan set:
  // comment is "affected" (rule fires) but the score cannot change.
  cs.ops.push_back(sm::AddLikes{102, 11});
  const auto delta = state.apply_change_set(cs);
  const auto changed = queries::q2_incremental_update(state, delta, scores);
  EXPECT_EQ(changed.nvals(), 1u);
  EXPECT_EQ(changed.at_or(1, 0), 1u);
}

class Q2StreamSweep : public ::testing::TestWithParam<unsigned> {};

// Property: incremental == batch == object model, after every change set.
TEST_P(Q2StreamSweep, IncrementalMatchesBatchAndModel) {
  const auto ds = datagen::generate(datagen::params_for_scale(GetParam()));
  auto state = GrbState::from_graph(ds.initial);
  auto inc_scores = queries::q2_batch_scores(state);
  sm::SocialGraph model = ds.initial;
  for (const auto& cs : ds.changes) {
    const auto delta = state.apply_change_set(cs);
    queries::q2_incremental_update(state, delta, inc_scores);
    const auto batch = queries::q2_batch_scores(state);
    sm::apply_change_set(model, cs);
    ASSERT_EQ(state.num_comments(), model.num_comments());
    for (Index c = 0; c < state.num_comments(); ++c) {
      ASSERT_EQ(inc_scores.at_or(c, 0), batch.at_or(c, 0)) << "comment " << c;
      ASSERT_EQ(inc_scores.at_or(c, 0), nmf::q2_score_of_comment(model, c))
          << "comment " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, Q2StreamSweep, ::testing::Values(1u, 2u, 4u));

TEST(Q2Parallel, ThreadCountDoesNotChangeScores) {
  const auto ds = datagen::generate(datagen::params_for_scale(4));
  const auto state = GrbState::from_graph(ds.initial);
  grb::Vector<U64> s1(0), s8(0);
  {
    grb::ThreadGuard g(1);
    s1 = queries::q2_batch_scores(state);
  }
  {
    grb::ThreadGuard g(8);
    s8 = queries::q2_batch_scores(state);
  }
  EXPECT_EQ(s1, s8);
}

}  // namespace
