// GrbState: the GraphBLAS view of the social graph, exactly the matrices the
// paper's solution maintains (Sec. III):
//
//   RootPost ∈ B^{|posts| × |comments|}   — post p is the root of comment c
//   Likes    ∈ B^{|comments| × |users|}   — user u likes comment c
//   Friends  ∈ B^{|users| × |users|}      — symmetric friendship adjacency
//   likesCount ∈ N^{|comments|}           — row-wise sum of Likes (maintained)
//
// plus the id/timestamp mappings needed to emit contest answers, and the
// comment → root-post mapping needed to resolve incoming changes.
//
// apply_change_set() first resolves the whole change set (every id, parent
// and duplicate, including ids the set itself creates) without touching the
// state, so an invalid set throws and leaves the state unchanged. It then
// commits: grows the matrix dimensions, updates each matrix in place with
// one sorted insert/remove batch (cost set by the delta and the entries
// after its first touched row, not by a rebuild of every row), scatters the
// ± like counts into likesCount, and returns the GrbDelta the incremental
// algorithms consume: ΔRootPost, likesCount⁺, the NewFriends incidence
// matrix and the new/modified comment lists of Fig. 4.
#pragma once

#include <unordered_map>
#include <vector>

#include "grb/detail/check.hpp"
#include "grb/grb.hpp"
#include "model/change.hpp"
#include "model/social_graph.hpp"

namespace queries {

using grb::Bool;
using grb::Index;

/// What a change set did, in matrix terms (inputs of Alg. 2 / Fig. 4b).
struct GrbDelta {
  /// ΔRootPost: new rootPost edges, dims posts' × comments'.
  grb::Matrix<Bool> delta_root_post;
  /// likesCount⁺: new likes per comment, size comments'.
  grb::Vector<std::uint64_t> likes_count_plus;
  /// NewFriends incidence matrix: users' × #new friendships, one column per
  /// new friendship with 1s at both endpoints.
  grb::Matrix<Bool> new_friends;
  /// Dense ids of comments created by this change set.
  std::vector<Index> new_comments;
  /// Dense ids of posts created by this change set (needed to seed them as
  /// zero-score top-k candidates).
  std::vector<Index> new_posts;
  /// New (comment, user) like pairs after deduplication — consumed by the
  /// incremental-connected-components extension engine.
  std::vector<std::pair<Index, Index>> new_likes;
  /// New (user, user) friendship pairs after deduplication (the columns of
  /// `new_friends`, as pairs).
  std::vector<std::pair<Index, Index>> new_friendships;

  // --- removal extension (paper future-work item (1)) ------------------------
  /// likesCount⁻: likes removed per comment, size comments'.
  grb::Vector<std::uint64_t> likes_count_minus;
  /// Removed (comment, user) like pairs (edges that actually existed).
  std::vector<std::pair<Index, Index>> removed_likes;
  /// RemovedFriends incidence matrix (users' × #removed friendships), same
  /// encoding as `new_friends` — drives the Q2 affected-set rule for
  /// removals (a comment both ex-friends like may split a component).
  grb::Matrix<Bool> removed_friends;
  /// Removed (user, user) friendship pairs.
  std::vector<std::pair<Index, Index>> removed_friendships;

  /// True if this change set removed any edge; engines then leave the
  /// monotone merge-only top-k fast path.
  [[nodiscard]] bool has_removals() const noexcept {
    return !removed_likes.empty() || !removed_friendships.empty();
  }
};

class GrbState {
 public:
  /// Builds the matrices from an initial graph (the "load" phase).
  static GrbState from_graph(const sm::SocialGraph& g);

  /// Applies a change set: grows dimensions, merges edges, returns the delta.
  /// Transactional: throws grb::InvalidValue on an unknown or duplicate id
  /// and then leaves the state exactly as it was. Externally serial: Debug
  /// builds guard against reentrant or concurrent applies (ReentrancyGuard
  /// aborts on an overlapping scope).
  GrbDelta apply_change_set(const sm::ChangeSet& cs);

  /// Completed applies on this state (Debug builds; always 0 in Release).
  [[nodiscard]] std::uint64_t apply_epoch() const noexcept {
    return apply_guard_.epoch();
  }

  // --- matrix views ---------------------------------------------------------
  [[nodiscard]] const grb::Matrix<Bool>& root_post() const noexcept {
    return root_post_;
  }
  [[nodiscard]] const grb::Matrix<Bool>& likes() const noexcept {
    return likes_;
  }
  [[nodiscard]] const grb::Matrix<Bool>& friends() const noexcept {
    return friends_;
  }
  [[nodiscard]] const grb::Vector<std::uint64_t>& likes_count() const noexcept {
    return likes_count_;
  }

  [[nodiscard]] Index num_posts() const noexcept { return root_post_.nrows(); }
  [[nodiscard]] Index num_comments() const noexcept { return likes_.nrows(); }
  [[nodiscard]] Index num_users() const noexcept { return friends_.nrows(); }

  // --- answer metadata ------------------------------------------------------
  [[nodiscard]] sm::NodeId post_id(Index i) const { return post_ids_[i]; }
  [[nodiscard]] sm::NodeId comment_id(Index i) const { return comment_ids_[i]; }
  [[nodiscard]] sm::NodeId user_id(Index i) const { return user_ids_[i]; }
  [[nodiscard]] sm::Timestamp post_timestamp(Index i) const {
    return post_ts_[i];
  }
  [[nodiscard]] sm::Timestamp comment_timestamp(Index i) const {
    return comment_ts_[i];
  }

 private:
  void add_user(sm::NodeId id);
  void add_post(sm::NodeId id, sm::Timestamp ts);

  grb::Matrix<Bool> root_post_{0, 0};
  grb::Matrix<Bool> likes_{0, 0};
  grb::Matrix<Bool> friends_{0, 0};
  grb::Vector<std::uint64_t> likes_count_{0};

  std::vector<sm::NodeId> post_ids_;
  std::vector<sm::NodeId> comment_ids_;
  std::vector<sm::NodeId> user_ids_;
  std::vector<sm::Timestamp> post_ts_;
  std::vector<sm::Timestamp> comment_ts_;
  std::vector<Index> comment_root_;  // dense comment -> dense root post

  std::unordered_map<sm::NodeId, Index> post_idx_;
  std::unordered_map<sm::NodeId, Index> comment_idx_;
  std::unordered_map<sm::NodeId, Index> user_idx_;

  /// Debug reentrancy/epoch guard on apply_change_set (no-op in Release;
  /// copies of a state start with a fresh, idle guard).
  grb::detail::ReentrancyGuard apply_guard_;
};

}  // namespace queries
