#include "queries/engines.hpp"

#include <algorithm>

#include "queries/q1.hpp"
#include "queries/q2.hpp"

namespace queries {

namespace {

using U64 = std::uint64_t;

/// Full top-k scan over every post (Q1) or comment (Q2), score 0 included —
/// zero-score entities still rank by timestamp.
TopK scan_top_k(const GrbState& s, harness::Query q,
                const grb::Vector<U64>& scores) {
  TopK top(3);
  const bool q1 = q == harness::Query::kQ1;
  const Index n = q1 ? s.num_posts() : s.num_comments();
  for (Index i = 0; i < n; ++i) {
    top.offer_guarded(
        Ranked{q1 ? s.post_id(i) : s.comment_id(i), scores.at_or(i, 0),
               q1 ? s.post_timestamp(i) : s.comment_timestamp(i)});
  }
  return top;
}

}  // namespace

// --- GrbBatchEngine ----------------------------------------------------------

void GrbBatchEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
}

std::string GrbBatchEngine::evaluate() {
  const auto scores = query_ == harness::Query::kQ1 ? q1_batch_scores(state_)
                                                    : q2_batch_scores(state_);
  return scan_top_k(state_, query_, scores).answer();
}

std::string GrbBatchEngine::initial() { return evaluate(); }

std::string GrbBatchEngine::update(const sm::ChangeSet& cs) {
  state_.apply_change_set(cs);  // batch: delta discarded, full recompute
  return evaluate();
}

// --- GrbIncrementalEngine ----------------------------------------------------

void GrbIncrementalEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
}

Ranked GrbIncrementalEngine::ranked_of(Index entity, U64 score) const {
  const bool q1 = query_ == harness::Query::kQ1;
  return Ranked{
      q1 ? state_.post_id(entity) : state_.comment_id(entity), score,
      q1 ? state_.post_timestamp(entity) : state_.comment_timestamp(entity)};
}

Index GrbIncrementalEngine::num_entities() const {
  return query_ == harness::Query::kQ1 ? state_.num_posts()
                                       : state_.num_comments();
}

auto GrbIncrementalEngine::scan() const {
  return [this](std::size_t /*space*/, Index lo, Index hi, auto&& emit) {
    scores_.for_each_dense(lo, hi, U64{0}, [&](Index i, U64 v) {
      emit(i, ranked_of(i, v));
    });
  };
}

std::string GrbIncrementalEngine::initial() {
  // First step: full evaluation (the paper's engine switches to incremental
  // maintenance from the second step on). The same walk seeds the pruning
  // state.
  scores_ = query_ == harness::Query::kQ1 ? q1_batch_scores(state_)
                                          : q2_batch_scores(state_);
  top_.rebuild({num_entities()}, scan());
  return top_.answer();
}

std::string GrbIncrementalEngine::update(const sm::ChangeSet& cs) {
  GrbDelta delta = state_.apply_change_set(cs);
  grb::Vector<U64> changed =
      query_ == harness::Query::kQ1
          ? q1_incremental_update(state_, delta, scores_)
          : q2_incremental_update(state_, delta, scores_);
  const bool removals = delta.has_removals();

  // Every score change flows through `changed`, which is what keeps the
  // pool values exact and the bounds valid upper bounds across change sets.
  // Newborn entities can rank by recency before they score.
  top_.grow(0, num_entities());
  const auto value_of = [&](Index i) { return scores_.at_or(i, 0); };
  const auto ci = changed.indices();
  const auto cv = changed.values();
  for (std::size_t k = 0; k < ci.size(); ++k) {
    top_.note(0, ci[k], ranked_of(ci[k], cv[k]), removals, value_of);
  }
  const bool q1 = query_ == harness::Query::kQ1;
  for (const Index i : q1 ? delta.new_posts : delta.new_comments) {
    top_.note_newborn(0, i, ranked_of(i, value_of(i)));
  }
  top_.finish(removals, scan());
  return top_.answer();
}

// --- GrbIncrementalCcEngine --------------------------------------------------

void GrbIncrementalCcEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
  per_comment_.clear();
  liked_by_user_.assign(state_.num_users(), {});
  per_comment_.resize(state_.num_comments());
  for (Index c = 0; c < state_.num_comments(); ++c) {
    for (const Index u : state_.likes().row_cols(c)) {
      add_like(c, u);
    }
  }
}

void GrbIncrementalCcEngine::add_like(Index comment, Index user,
                                      bool update_index) {
  auto& cc = per_comment_[comment];
  const auto [it, inserted] = cc.local.emplace(user, 0);
  if (!inserted) return;  // duplicate like
  it->second = cc.cc.add_node();
  if (update_index) {
    if (static_cast<Index>(liked_by_user_.size()) <= user) {
      liked_by_user_.resize(user + 1);
    }
    liked_by_user_[user].push_back(comment);
  }
  // Union with every friend of `user` already in the comment's fan set.
  for (const Index f : state_.friends().row_cols(user)) {
    const auto fit = cc.local.find(f);
    if (fit != cc.local.end()) {
      cc.cc.add_edge(it->second, fit->second);
    }
  }
}

void GrbIncrementalCcEngine::rebuild_comment(Index comment) {
  per_comment_[comment] = CommentCc{};
  for (const Index u : state_.likes().row_cols(comment)) {
    add_like(comment, u, /*update_index=*/false);
  }
}

void GrbIncrementalCcEngine::offer(Index comment) {
  top_.offer(Ranked{state_.comment_id(comment),
                    per_comment_[comment].cc.sum_squared_sizes(),
                    state_.comment_timestamp(comment)});
}

std::string GrbIncrementalCcEngine::initial() {
  top_ = TopK(3);
  for (Index c = 0; c < state_.num_comments(); ++c) {
    offer(c);
  }
  return top_.answer();
}

std::string GrbIncrementalCcEngine::update(const sm::ChangeSet& cs) {
  GrbDelta delta = state_.apply_change_set(cs);
  per_comment_.resize(state_.num_comments());

  if (delta.has_removals()) {
    // Union-find supports no deletions: rebuild the structures of exactly
    // the affected comments from the updated matrices, fix the per-user
    // like index, and re-rank from the maintained per-comment sums.
    for (const auto& [c, u] : delta.removed_likes) {
      auto& liked = liked_by_user_[u];
      const auto it = std::find(liked.begin(), liked.end(), c);
      if (it != liked.end()) liked.erase(it);
    }
    if (liked_by_user_.size() < state_.num_users()) {
      liked_by_user_.resize(state_.num_users());
    }
    for (const auto& [c, u] : delta.new_likes) {
      liked_by_user_[u].push_back(c);
    }
    for (const Index c : q2_affected_comments(state_, delta)) {
      rebuild_comment(c);
    }
    top_ = TopK(3);
    for (Index c = 0; c < state_.num_comments(); ++c) {
      top_.offer_guarded(Ranked{state_.comment_id(c),
                                per_comment_[c].cc.sum_squared_sizes(),
                                state_.comment_timestamp(c)});
    }
    return top_.answer();
  }
  if (liked_by_user_.size() < state_.num_users()) {
    liked_by_user_.resize(state_.num_users());
  }
  std::vector<Index> touched = delta.new_comments;
  // New likes first: friends_ already reflects the whole change set, so
  // unions with same-batch friendships happen here; repeating them below is
  // a harmless no-op (union-find is idempotent).
  for (const auto& [c, u] : delta.new_likes) {
    add_like(c, u);
    touched.push_back(c);
  }
  // New friendships: union inside every comment both endpoints like.
  for (const auto& [a, b] : delta.new_friendships) {
    const auto& smaller = liked_by_user_[a].size() <= liked_by_user_[b].size()
                              ? liked_by_user_[a]
                              : liked_by_user_[b];
    for (const Index c : smaller) {
      auto& cc = per_comment_[c];
      const auto ia = cc.local.find(a);
      const auto ib = cc.local.find(b);
      if (ia != cc.local.end() && ib != cc.local.end()) {
        if (cc.cc.add_edge(ia->second, ib->second)) {
          touched.push_back(c);
        }
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const Index c : touched) {
    offer(c);
  }
  return top_.answer();
}

// --- factory -----------------------------------------------------------------

harness::EnginePtr make_grb_engine(const std::string& variant,
                                   harness::Query q) {
  if (variant == "batch") return std::make_unique<GrbBatchEngine>(q);
  if (variant == "incremental") {
    return std::make_unique<GrbIncrementalEngine>(q);
  }
  if (variant == "incremental-cc") {
    // Q1 has no CC component: the incremental engine is the Q1 half.
    if (q == harness::Query::kQ1) {
      return std::make_unique<GrbIncrementalEngine>(q);
    }
    return std::make_unique<GrbIncrementalCcEngine>();
  }
  throw grb::InvalidValue("unknown GraphBLAS engine variant: " + variant);
}

}  // namespace queries
