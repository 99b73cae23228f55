// GrbState apply: a change set is resolved in full before anything changes
// (an invalid set throws and leaves the state as it was), and the in-place
// matrix updates leave exactly the matrices a from-scratch load of the same
// graph builds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/generator.hpp"
#include "paper_example.hpp"
#include "queries/grb_state.hpp"

namespace {

using grb::Index;
using namespace paper_example;

void expect_same_state(const queries::GrbState& a, const queries::GrbState& b) {
  EXPECT_EQ(a.root_post(), b.root_post());
  EXPECT_EQ(a.likes(), b.likes());
  EXPECT_EQ(a.friends(), b.friends());
  EXPECT_EQ(a.likes_count(), b.likes_count());
}

TEST(GrbStateTransactional, InvalidSetThrowsAndLeavesStateUnchanged) {
  auto state = queries::GrbState::from_graph(initial_graph());
  const auto before = state;
  sm::ChangeSet bad;
  bad.ops.push_back(sm::AddComment{9001, 3000, /*parent_is_comment=*/false,
                                   kP2, kU1});
  bad.ops.push_back(sm::AddLikes{/*user=*/999, /*comment=*/9001});
  EXPECT_THROW(state.apply_change_set(bad), grb::InvalidValue);

  EXPECT_EQ(state.num_posts(), 2u);
  EXPECT_EQ(state.num_comments(), 3u);
  EXPECT_EQ(state.num_users(), 4u);
  EXPECT_EQ(state.root_post().nvals(), 3u);
  expect_same_state(state, before);

  // An empty apply after the refused set grows nothing.
  (void)state.apply_change_set(sm::ChangeSet{});
  EXPECT_EQ(state.num_comments(), 3u);
  expect_same_state(state, before);

  // The corrected set goes through: comment 9001 is new, rooted at p2, and
  // its like counts.
  sm::ChangeSet fixed;
  fixed.ops.push_back(sm::AddComment{9001, 3000, /*parent_is_comment=*/false,
                                     kP2, kU1});
  fixed.ops.push_back(sm::AddLikes{kU1, 9001});
  const auto delta = state.apply_change_set(fixed);
  EXPECT_EQ(delta.new_comments, (std::vector<Index>{3}));
  EXPECT_EQ(state.comment_id(3), 9001u);
  EXPECT_EQ(state.root_post().nvals(), 4u);
  EXPECT_TRUE(state.root_post().has(1, 3));
  EXPECT_EQ(state.likes_count().at_or(3, 0), 1u);
}

TEST(GrbStateTransactional, EveryKindOfBadOpIsRefusedWithoutSideEffects) {
  const auto fresh = queries::GrbState::from_graph(initial_graph());
  const auto comment = [](sm::NodeId id, bool under_comment,
                          sm::NodeId parent) {
    return sm::AddComment{id, 5000, under_comment, parent, kU1};
  };
  // Each set starts with valid ops that would create ids and edges, then
  // one bad op.
  const std::vector<std::vector<sm::ChangeOp>> bad_sets = {
      {sm::AddUser{500}, sm::AddUser{500}},                 // staged twice
      {sm::AddUser{500}, sm::AddUser{kU1}},                 // exists
      {sm::AddPost{7, 1, kU1}, sm::AddPost{kP1, 1, kU1}},   // exists
      {comment(20, false, kP1), comment(20, true, kC1)},    // staged twice
      {comment(20, false, kP1), comment(kC3, false, kP1)},  // exists
      {comment(20, false, 99)},                             // no such post
      {comment(20, true, 21), comment(21, false, kP1)},     // parent later
      {sm::AddLikes{kU1, kC3}, sm::AddLikes{kU1, 99}},      // no comment
      {sm::AddFriendship{kU1, kU2}, sm::AddFriendship{kU1, 999}},
      {sm::AddLikes{kU1, kC3}, sm::RemoveLikes{999, kC1}},
      {sm::RemoveFriendship{kU2, kU3}, sm::RemoveFriendship{999, kU2}},
      {sm::AddLikes{500, kC1}, sm::AddUser{500}},  // user created later
  };
  for (std::size_t k = 0; k < bad_sets.size(); ++k) {
    auto state = fresh;
    sm::ChangeSet cs;
    cs.ops = bad_sets[k];
    EXPECT_THROW(state.apply_change_set(cs), grb::InvalidValue) << "set " << k;
    EXPECT_EQ(state.num_posts(), fresh.num_posts()) << "set " << k;
    EXPECT_EQ(state.num_comments(), fresh.num_comments()) << "set " << k;
    EXPECT_EQ(state.num_users(), fresh.num_users()) << "set " << k;
    expect_same_state(state, fresh);
    // The ids the refused set would have created are still free.
    sm::ChangeSet retry;
    retry.ops = {sm::AddUser{500}, sm::AddPost{7, 1, kU1},
                 comment(20, false, 7), comment(21, true, 20),
                 sm::AddLikes{500, 21}};
    EXPECT_NO_THROW(state.apply_change_set(retry)) << "set " << k;
    EXPECT_EQ(state.root_post().nvals(), fresh.root_post().nvals() + 2);
    EXPECT_TRUE(state.root_post().has(2, 4)) << "comment 21 under post 7";
  }
}

class StateMatchesReload : public ::testing::TestWithParam<double> {};

// After every apply of a generated stream, the maintained matrices equal
// (operator==, so rowptr/colind/values byte for byte) the ones from_graph
// builds from the model graph at that point.
TEST_P(StateMatchesReload, AfterEveryApply) {
  auto params = datagen::params_for_scale(1, 17);
  params.frac_removals = GetParam();
  const auto ds = datagen::generate(params);
  ASSERT_GE(ds.changes.size(), 5u);
  bool any_removal = false;
  auto state = queries::GrbState::from_graph(ds.initial);
  sm::SocialGraph model = ds.initial;
  for (std::size_t step = 0; step < ds.changes.size(); ++step) {
    const auto& cs = ds.changes[step];
    any_removal |= sm::has_removals(cs);
    (void)state.apply_change_set(cs);
    sm::apply_change_set(model, cs);
    SCOPED_TRACE("change set " + std::to_string(step));
    expect_same_state(state, queries::GrbState::from_graph(model));
    if (HasFailure()) return;
  }
  EXPECT_EQ(any_removal, GetParam() > 0) << "stream shape not as intended";
}

std::string stream_name(const ::testing::TestParamInfo<double>& info) {
  return info.param > 0 ? "WithRemovals" : "InsertOnly";
}

INSTANTIATE_TEST_SUITE_P(Streams, StateMatchesReload,
                         ::testing::Values(0.0, 0.3), stream_name);

}  // namespace
