#include "shard/pipelined_engine.hpp"

#include <algorithm>
#include <memory>

#include "queries/q1.hpp"
#include "queries/q2.hpp"
#include "support/telemetry/trace.hpp"

namespace shard {

namespace {

using queries::GrbState;
using queries::Ranked;
using queries::TopK;
using U64 = std::uint64_t;

}  // namespace

GrbPipelinedEngine::GrbPipelinedEngine(harness::Query q, Mode mode,
                                       std::size_t num_shards,
                                       std::size_t depth,
                                       Partitioner::Scheme scheme)
    : query_(q),
      mode_(mode),
      depth_(depth),
      state_(num_shards, scheme) {
  if (depth_ == 0) {
    throw grb::InvalidValue("GrbPipelinedEngine: depth must be >= 1");
  }
}

GrbPipelinedEngine::~GrbPipelinedEngine() {
  // Join the workers before any state they touch (scores_, ring_, this)
  // goes away.
  state_.end_pipeline();
}

std::string GrbPipelinedEngine::name() const {
  return mode_ == Mode::kBatch ? "GraphBLAS Pipelined Batch"
                               : "GraphBLAS Pipelined Incremental";
}

auto GrbPipelinedEngine::scan_mirror() const {
  return [this](std::size_t s, Index lo, Index hi, auto&& emit) {
    if (query_ == harness::Query::kQ1) {
      for (Index p = lo; p < hi; ++p) {
        const auto k = static_cast<std::size_t>(p);
        U64 total = 0;
        for (const auto& m : mirror_) total += m[k];
        emit(p, Ranked{post_ids_[k], total, post_ts_[k]});
      }
    } else {
      for (Index c = lo; c < hi; ++c) {
        const auto k = static_cast<std::size_t>(c);
        emit(c, Ranked{comment_ids_[s][k], mirror_[s][k], comment_ts_[s][k]});
      }
    }
  };
}

void GrbPipelinedEngine::load(const sm::SocialGraph& g) {
  state_.end_pipeline();  // a re-load restarts the epoch numbering
  submitted_ = merged_ = 0;
  state_.load(g);
  reset_merge_state();
}

std::string GrbPipelinedEngine::initial() {
  // Initial evaluation is a serial-barrier batch scan, exactly as the
  // sharded engines do it; it also seeds the merge thread's epoch-0 view
  // (metadata + score mirrors) that the pipelined updates advance from.
  const std::size_t n = state_.num_shards();
  std::vector<grb::Vector<U64>> scores(n, grb::Vector<U64>(0));
  state_.for_each_shard([&](std::size_t s) {
    scores[s] = query_ == harness::Query::kQ1
                    ? queries::q1_batch_scores(state_.shard(s))
                    : queries::q2_batch_scores(state_.shard(s));
  });

  reset_merge_state();
  const GrbState& s0 = state_.shard(0);
  const Index np = s0.num_posts();
  post_ids_.reserve(static_cast<std::size_t>(np));
  post_ts_.reserve(static_cast<std::size_t>(np));
  for (Index p = 0; p < np; ++p) {
    post_ids_.push_back(s0.post_id(p));
    post_ts_.push_back(s0.post_timestamp(p));
  }
  for (std::size_t s = 0; s < n; ++s) {
    const GrbState& st = state_.shard(s);
    const Index nc = st.num_comments();
    comment_ids_[s].reserve(static_cast<std::size_t>(nc));
    comment_ts_[s].reserve(static_cast<std::size_t>(nc));
    for (Index c = 0; c < nc; ++c) {
      comment_ids_[s].push_back(st.comment_id(c));
      comment_ts_[s].push_back(st.comment_timestamp(c));
    }
  }

  if (mode_ == Mode::kIncremental) {
    scores_ = std::move(scores);
    for (std::size_t s = 0; s < n; ++s) {
      mirror_[s].assign(query_ == harness::Query::kQ1
                            ? post_ids_.size()
                            : comment_ids_[s].size(),
                        0);
      const auto idx = scores_[s].indices();
      const auto val = scores_[s].values();
      for (std::size_t k = 0; k < idx.size(); ++k) {
        mirror_[s][static_cast<std::size_t>(idx[k])] = val[k];
      }
    }
    // The epoch-0 full scan doubles as the pruning-state build: one space
    // over merged post totals (Q1), one per shard's comments (Q2).
    std::vector<Index> sizes;
    if (query_ == harness::Query::kQ1) {
      sizes.push_back(static_cast<Index>(post_ids_.size()));
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        sizes.push_back(static_cast<Index>(comment_ids_[s].size()));
      }
    }
    top_.rebuild(sizes, scan_mirror());
    return top_.answer();
  }

  // Batch mode: merged scan over the fresh per-shard score vectors (the
  // metadata arrays are exactly the shard states' dense id order).
  TopK top(3);
  if (query_ == harness::Query::kQ1) {
    for (std::size_t p = 0; p < post_ids_.size(); ++p) {
      U64 total = 0;
      for (const auto& partial : scores) {
        total += partial.at_or(static_cast<Index>(p), 0);
      }
      top.offer_guarded(Ranked{post_ids_[p], total, post_ts_[p]});
    }
  } else {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c = 0; c < comment_ids_[s].size(); ++c) {
        top.offer_guarded(Ranked{comment_ids_[s][c],
                                 scores[s].at_or(static_cast<Index>(c), 0),
                                 comment_ts_[s][c]});
      }
    }
  }
  return top.answer();
}

void GrbPipelinedEngine::ensure_pipeline() {
  if (state_.pipeline_active()) return;
  const std::size_t n = state_.num_shards();
  ring_.clear();
  ring_.resize(depth_);
  for (auto& slot : ring_) slot.reports.resize(n);
  state_.begin_pipeline(
      depth_, [this](std::size_t s, std::uint64_t e, queries::GrbDelta delta) {
        // Shard worker, epoch e: reevaluate this shard and publish the
        // immutable report the merge thread will fold in under the
        // publication barrier. Everything the merge needs is copied out
        // here, while this worker owns the shard's state at epoch e.
        ShardReport& r = ring_[e % depth_].reports[s];
        r.changed.clear();
        r.new_comment_meta.clear();
        r.new_post_meta.clear();
        r.has_removals = delta.has_removals();
        const GrbState& st = state_.shard(s);
        r.new_comments = std::move(delta.new_comments);
        for (const Index c : r.new_comments) {
          r.new_comment_meta.emplace_back(st.comment_id(c),
                                          st.comment_timestamp(c));
        }
        if (s == 0) {
          r.new_posts = std::move(delta.new_posts);
          for (const Index p : r.new_posts) {
            r.new_post_meta.emplace_back(st.post_id(p), st.post_timestamp(p));
          }
        }
        if (mode_ == Mode::kIncremental) {
          grb::Vector<U64> changed =
              query_ == harness::Query::kQ1
                  ? queries::q1_incremental_update(st, delta, scores_[s])
                  : queries::q2_incremental_update(st, delta, scores_[s]);
          const auto idx = changed.indices();
          const auto val = changed.values();
          r.changed.reserve(idx.size());
          for (std::size_t k = 0; k < idx.size(); ++k) {
            r.changed.emplace_back(idx[k], val[k]);
          }
        } else {
          r.batch_scores = query_ == harness::Query::kQ1
                               ? queries::q1_batch_scores(st)
                               : queries::q2_batch_scores(st);
        }
      });
}

std::uint64_t GrbPipelinedEngine::submit(const sm::ChangeSet& cs) {
  if (mode_ == Mode::kIncremental &&
      scores_.size() != state_.num_shards()) {
    throw grb::InvalidValue(
        "GrbPipelinedEngine: initial() must run before updates (no "
        "maintained scores to advance)");
  }
  if (in_flight() >= depth_) {
    throw grb::InvalidValue(
        "GrbPipelinedEngine::submit: window full (depth " +
        std::to_string(depth_) + ") — merge_one() the oldest epoch first");
  }
  ensure_pipeline();
  // Route + hand-off to the shard workers; epoch ids in traces are 1-based
  // (snapshot numbering), so this correlates with the apply/merge/publish
  // spans of the same change set.
  GRB_TRACE_SPAN("route", submitted_ + 1);
  const std::uint64_t e = state_.apply_async(cs);
  (void)e;  // == submitted_: epochs are dense from begin_pipeline
  return submitted_++;
}

GrbPipelinedEngine::Merged GrbPipelinedEngine::merge_one() {
  if (in_flight() == 0) {
    throw grb::InvalidValue(
        "GrbPipelinedEngine::merge_one: no epochs in flight — submit() a "
        "change set first");
  }
  const std::uint64_t e = merged_;
  return Merged{e, merge_next()};
}

std::string GrbPipelinedEngine::merge_next() {
  const std::uint64_t e = merged_;
  // Publisher-side merge (includes the publication-barrier wait below — the
  // span measures time-to-merged as the writer thread experiences it).
  GRB_TRACE_SPAN("merge", e + 1);
  state_.wait_epoch(e);  // publication barrier: every shard retired e
  EpochSlot& slot = ring_[e % depth_];
  const std::size_t n = state_.num_shards();

  // Advance the merge thread's epoch-consistent view: append newborn
  // metadata, then (incremental mode) fold every shard's changed entries
  // into the mirrors *before* any offer — the serial engine updates all of
  // scores_ in the fan-out before it starts offering, and the removal
  // re-rank reads every shard's scores.
  for (const auto& [id, ts] : slot.reports[0].new_post_meta) {
    post_ids_.push_back(id);
    post_ts_.push_back(ts);
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& [id, ts] : slot.reports[s].new_comment_meta) {
      comment_ids_[s].push_back(id);
      comment_ts_[s].push_back(ts);
    }
  }
  const bool removals = std::any_of(
      slot.reports.begin(), slot.reports.end(),
      [](const ShardReport& r) { return r.has_removals; });

  std::string answer;
  if (mode_ == Mode::kIncremental) {
    // Resize the mirrors first so newborn entities are readable (at zero)
    // before any fold or offer touches them.
    for (std::size_t s = 0; s < n; ++s) {
      mirror_[s].resize(query_ == harness::Query::kQ1
                            ? post_ids_.size()
                            : comment_ids_[s].size(),
                        0);
    }
    if (query_ == harness::Query::kQ1) {
      // Candidate union: per-shard changed indices in shard order, then
      // the replicated new posts, deduplicated. The old totals (read before
      // the mirror fold) make the may-lower signal exact per post, unlike
      // the serial engine's epoch-level flag.
      std::vector<Index> candidates;
      for (std::size_t s = 0; s < n; ++s) {
        for (const auto& [i, v] : slot.reports[s].changed) {
          candidates.push_back(i);
        }
      }
      candidates.insert(candidates.end(), slot.reports[0].new_posts.begin(),
                        slot.reports[0].new_posts.end());
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      top_.grow(0, static_cast<Index>(post_ids_.size()));
      const auto total_of = [&](Index p) {
        U64 total = 0;
        for (std::size_t s = 0; s < n; ++s) {
          total += mirror_[s][static_cast<std::size_t>(p)];
        }
        return total;
      };
      std::vector<U64> old_total(candidates.size());
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        old_total[k] = total_of(candidates[k]);
      }
      for (std::size_t s = 0; s < n; ++s) {
        for (const auto& [i, v] : slot.reports[s].changed) {
          mirror_[s][static_cast<std::size_t>(i)] = v;
        }
      }
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const Index p = candidates[k];
        const U64 total = total_of(p);
        const Ranked r{post_ids_[static_cast<std::size_t>(p)], total,
                       post_ts_[static_cast<std::size_t>(p)]};
        top_.note(0, p, r, total < old_total[k], total_of);
      }
    } else {
      // Q2: shards own disjoint comment spaces, so fold + offer can run
      // per shard (the serial engine's fold-all-then-offer order commutes).
      for (std::size_t s = 0; s < n; ++s) {
        top_.grow(s, static_cast<Index>(comment_ids_[s].size()));
        const auto value_of = [&](Index c) {
          return mirror_[s][static_cast<std::size_t>(c)];
        };
        const auto ranked = [&](Index c) {
          const auto k = static_cast<std::size_t>(c);
          return Ranked{comment_ids_[s][k], mirror_[s][k], comment_ts_[s][k]};
        };
        for (const auto& [i, v] : slot.reports[s].changed) {
          // Exact may-lower: the pre-overwrite mirror value is this
          // publisher's epoch-consistent old score.
          const U64 old = mirror_[s][static_cast<std::size_t>(i)];
          mirror_[s][static_cast<std::size_t>(i)] = v;
          top_.note(s, i, ranked(i), v < old, value_of);
        }
        for (const Index c : slot.reports[s].new_comments) {
          top_.note_newborn(s, c, ranked(c));
        }
      }
    }
    top_.finish(removals, scan_mirror());
    answer = top_.answer();
  } else {
    // Batch mode: fresh merged scan over this epoch's reported score
    // vectors, then retire their storage (on this thread — the worker has
    // moved on).
    TopK top(3);
    if (query_ == harness::Query::kQ1) {
      for (std::size_t p = 0; p < post_ids_.size(); ++p) {
        U64 total = 0;
        for (std::size_t s = 0; s < n; ++s) {
          total += slot.reports[s].batch_scores.at_or(static_cast<Index>(p), 0);
        }
        top.offer_guarded(Ranked{post_ids_[p], total, post_ts_[p]});
      }
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        const grb::Vector<U64>& scores = slot.reports[s].batch_scores;
        for (std::size_t c = 0; c < comment_ids_[s].size(); ++c) {
          top.offer_guarded(Ranked{comment_ids_[s][c],
                                   scores.at_or(static_cast<Index>(c), 0),
                                   comment_ts_[s][c]});
        }
      }
    }
    answer = top.answer();
  }

  state_.release_epoch(e);
  ++merged_;
  return answer;
}

std::string GrbPipelinedEngine::update(const sm::ChangeSet& cs) {
  submit(cs);
  std::string answer;
  while (merged_ < submitted_) answer = merge_next();
  return answer;
}

std::vector<std::string> GrbPipelinedEngine::update_stream(
    const std::vector<sm::ChangeSet>& changes) {
  // An empty stream is a no-op: no epoch is reserved and the publication
  // barrier is never touched — in particular the pipeline (and its worker
  // threads) must not spin up for a caller that had nothing to ingest.
  if (changes.empty()) return {};
  // The overlap schedule: keep up to `depth` epochs in flight, draining the
  // oldest only when the window is full (or the stream ends). Routing and
  // merging both happen on this thread — the producer is the consumer —
  // while the per-shard apply/reevaluate work rides the worker threads.
  std::vector<std::string> answers;
  answers.reserve(changes.size());
  for (const sm::ChangeSet& cs : changes) {
    if (submitted_ - merged_ >= depth_) answers.push_back(merge_next());
    submit(cs);
  }
  while (merged_ < submitted_) answers.push_back(merge_next());
  return answers;
}

void GrbPipelinedEngine::reset_merge_state() {
  const std::size_t n = state_.num_shards();
  post_ids_.clear();
  post_ts_.clear();
  comment_ids_.assign(n, {});
  comment_ts_.assign(n, {});
  mirror_.assign(n, {});
  top_ = queries::PrunedTopK(3);
}

harness::EnginePtr make_pipelined_engine(const std::string& variant,
                                         harness::Query q,
                                         std::size_t num_shards,
                                         std::size_t depth) {
  if (variant == "pipelined-batch") {
    return std::make_unique<GrbPipelinedEngine>(
        q, GrbPipelinedEngine::Mode::kBatch, num_shards, depth);
  }
  if (variant == "pipelined-incremental") {
    return std::make_unique<GrbPipelinedEngine>(
        q, GrbPipelinedEngine::Mode::kIncremental, num_shards, depth);
  }
  throw grb::InvalidValue("unknown pipelined engine variant: " + variant);
}

}  // namespace shard
