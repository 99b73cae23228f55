#include "shard/sharded_engines.hpp"

#include <algorithm>
#include <span>

#include "queries/q1.hpp"
#include "queries/q2.hpp"

namespace shard {

namespace {

using queries::GrbState;
using queries::Ranked;
using queries::TopK;
using U64 = std::uint64_t;

/// Dense-order k-way merge over the sorted per-shard Q1 partials: one
/// linear cursor per shard instead of a binary search per (post, shard).
/// `fn(p, total)` sees every post of [lo, hi) in dense id order with its
/// merged total.
template <typename Fn>
void merged_q1_walk(const std::vector<grb::Vector<U64>>& scores, Index lo,
                    Index hi, Fn&& fn) {
  const std::size_t n = scores.size();
  std::vector<std::span<const Index>> idx(n);
  std::vector<std::span<const U64>> val(n);
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    idx[s] = scores[s].indices();
    val[s] = scores[s].values();
    pos[s] = static_cast<std::size_t>(
        std::lower_bound(idx[s].begin(), idx[s].end(), lo) - idx[s].begin());
  }
  for (Index p = lo; p < hi; ++p) {
    U64 total = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (pos[s] < idx[s].size() && idx[s][pos[s]] == p) {
        total += val[s][pos[s]];
        ++pos[s];
      }
    }
    fn(p, total);
  }
}

/// Q1 merge: walk the (replicated, identical across shards) dense post id
/// space in order and rank each post by the sum of the per-shard partial
/// scores — the same candidate sequence and total order as the unsharded
/// full scan.
TopK merged_q1_scan(const ShardedGrbState& state,
                    const std::vector<grb::Vector<U64>>& scores) {
  TopK top(3);
  const GrbState& s0 = state.shard(0);
  merged_q1_walk(scores, 0, s0.num_posts(), [&](Index p, U64 total) {
    top.offer_guarded(Ranked{s0.post_id(p), total, s0.post_timestamp(p)});
  });
  return top;
}

/// Q2 merge: every comment lives on exactly one shard with its full score,
/// so the global top-k is the k-best of all per-shard candidates (zero-score
/// comments included — they still rank by recency). Offer order across
/// shards is irrelevant: ranks_before is a strict total order over distinct
/// comment ids.
TopK merged_q2_scan(const ShardedGrbState& state,
                    const std::vector<grb::Vector<U64>>& scores) {
  TopK top(3);
  for (std::size_t s = 0; s < state.num_shards(); ++s) {
    const GrbState& st = state.shard(s);
    scores[s].for_each_dense(0, st.num_comments(), U64{0}, [&](Index c, U64 v) {
      top.offer_guarded(Ranked{st.comment_id(c), v, st.comment_timestamp(c)});
    });
  }
  return top;
}

/// Per-shard batch scoring (Alg. 1 / Fig. 4b upper half on each shard's
/// matrices), fanned out across shards.
std::vector<grb::Vector<U64>> batch_scores(harness::Query q,
                                           ShardedGrbState& state) {
  std::vector<grb::Vector<U64>> scores(state.num_shards(),
                                       grb::Vector<U64>(0));
  state.for_each_shard([&](std::size_t s) {
    scores[s] = q == harness::Query::kQ1
                    ? queries::q1_batch_scores(state.shard(s))
                    : queries::q2_batch_scores(state.shard(s));
  });
  return scores;
}

}  // namespace

// --- GrbShardedBatchEngine ---------------------------------------------------

void GrbShardedBatchEngine::load(const sm::SocialGraph& g) { state_.load(g); }

std::string GrbShardedBatchEngine::evaluate() {
  auto scores = batch_scores(query_, state_);
  TopK top = query_ == harness::Query::kQ1 ? merged_q1_scan(state_, scores)
                                           : merged_q2_scan(state_, scores);
  return top.answer();
}

std::string GrbShardedBatchEngine::initial() { return evaluate(); }

std::string GrbShardedBatchEngine::update(const sm::ChangeSet& cs) {
  // Batch semantics: apply (the per-shard deltas are discarded) and fully
  // reevaluate.
  (void)state_.apply_change_set(cs);
  return evaluate();
}

// --- GrbShardedIncrementalEngine ---------------------------------------------

void GrbShardedIncrementalEngine::load(const sm::SocialGraph& g) {
  state_.load(g);
}

auto GrbShardedIncrementalEngine::scan() const {
  return [this](std::size_t s, Index lo, Index hi, auto&& emit) {
    if (query_ == harness::Query::kQ1) {
      const GrbState& s0 = state_.shard(0);
      merged_q1_walk(scores_, lo, hi, [&](Index p, U64 total) {
        emit(p, Ranked{s0.post_id(p), total, s0.post_timestamp(p)});
      });
    } else {
      const GrbState& st = state_.shard(s);
      scores_[s].for_each_dense(lo, hi, U64{0}, [&](Index c, U64 v) {
        emit(c, Ranked{st.comment_id(c), v, st.comment_timestamp(c)});
      });
    }
  };
}

std::string GrbShardedIncrementalEngine::initial() {
  scores_ = batch_scores(query_, state_);
  // The initial merged walk doubles as the pruning-state build. Q1 ranks
  // merged totals over the replicated post space (one space); Q2 comments
  // are disjoint per shard (one space each).
  std::vector<Index> sizes;
  if (query_ == harness::Query::kQ1) {
    sizes.push_back(state_.shard(0).num_posts());
  } else {
    for (std::size_t s = 0; s < state_.num_shards(); ++s) {
      sizes.push_back(state_.shard(s).num_comments());
    }
  }
  top_.rebuild(sizes, scan());
  return top_.answer();
}

std::string GrbShardedIncrementalEngine::update(const sm::ChangeSet& cs) {
  std::vector<queries::GrbDelta> deltas = state_.apply_change_set(cs);

  // Per-shard delta maintenance, fanned out. Each shard updates its own
  // maintained vector in place and reports the entries whose value changed.
  std::vector<grb::Vector<U64>> changed(state_.num_shards(),
                                        grb::Vector<U64>(0));
  state_.for_each_shard([&](std::size_t s) {
    changed[s] = query_ == harness::Query::kQ1
                     ? queries::q1_incremental_update(state_.shard(s),
                                                      deltas[s], scores_[s])
                     : queries::q2_incremental_update(state_.shard(s),
                                                      deltas[s], scores_[s]);
  });

  const bool removals =
      std::any_of(deltas.begin(), deltas.end(),
                  [](const queries::GrbDelta& d) { return d.has_removals(); });

  if (query_ == harness::Query::kQ1) {
    // Candidate union: a post's total changed iff some shard's partial
    // changed. New posts are replicated; shard 0's list covers them.
    std::vector<Index> candidates;
    for (const auto& ch : changed) {
      const auto ci = ch.indices();
      candidates.insert(candidates.end(), ci.begin(), ci.end());
    }
    candidates.insert(candidates.end(), deltas[0].new_posts.begin(),
                      deltas[0].new_posts.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const GrbState& s0 = state_.shard(0);
    top_.grow(0, s0.num_posts());
    const auto total_of = [&](Index p) {
      U64 total = 0;
      for (const auto& partial : scores_) total += partial.at_or(p, 0);
      return total;
    };
    for (const Index p : candidates) {
      const Ranked r{s0.post_id(p), total_of(p), s0.post_timestamp(p)};
      top_.note(0, p, r, removals, total_of);
    }
  } else {
    for (std::size_t s = 0; s < state_.num_shards(); ++s) {
      const GrbState& st = state_.shard(s);
      top_.grow(s, st.num_comments());
      const auto value_of = [&](Index c) { return scores_[s].at_or(c, 0); };
      const auto ci = changed[s].indices();
      const auto cv = changed[s].values();
      for (std::size_t k = 0; k < ci.size(); ++k) {
        const Ranked r{st.comment_id(ci[k]), cv[k],
                       st.comment_timestamp(ci[k])};
        top_.note(s, ci[k], r, removals, value_of);
      }
      for (const Index c : deltas[s].new_comments) {
        const Ranked r{st.comment_id(c), value_of(c), st.comment_timestamp(c)};
        top_.note_newborn(s, c, r);
      }
    }
  }
  top_.finish(removals, scan());
  return top_.answer();
}

// --- factory -----------------------------------------------------------------

harness::EnginePtr make_sharded_engine(const std::string& variant,
                                       harness::Query q,
                                       std::size_t num_shards) {
  if (variant == "sharded-batch") {
    return std::make_unique<GrbShardedBatchEngine>(q, num_shards);
  }
  if (variant == "sharded-incremental") {
    return std::make_unique<GrbShardedIncrementalEngine>(q, num_shards);
  }
  throw grb::InvalidValue("unknown sharded engine variant: " + variant);
}

}  // namespace shard
