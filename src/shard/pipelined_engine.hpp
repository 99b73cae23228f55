// Pipelined counterparts of the sharded engines: the same Q1/Q2 semantics
// and the same merged answers, with the update phase running through
// ShardedGrbState's ingestion pipeline instead of the serial barrier —
// shard i applies/reevaluates change set t+1 while shard j still works on
// t, up to `depth` change sets in flight.
//
// Determinism (the whole point): the producer thread is also the merge
// thread, and it never reads live shard state — a pipelined shard may
// already be epochs ahead of the answer being merged. Instead each shard's
// stage publishes an immutable per-epoch ShardReport (changed score
// entries, newborn post/comment metadata), and the merge thread maintains
// its own *mirror* of every shard's maintained score vector plus
// append-only post/comment metadata, advanced one epoch at a time from
// those reports. Mirror value == scores_[s].at_or(i, 0) of the serial
// engine at the same epoch, and the metadata arrays reproduce the dense id
// order of the shard states at that epoch. The mirrors feed the same
// queries::PrunedTopK protocol the serial engines drive — same spaces,
// same candidate order, same full `ranks_before` order — so answers are
// byte-identical to the serial schedule at every shard count × depth.
// This mirror is the "double-buffered per-shard score state": workers
// mutate the live copy at epoch t+k while the publisher reads its own
// epoch-t copy, with the EpochPipeline publication barrier as the only
// hand-off between them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/engine.hpp"
#include "queries/top_k.hpp"
#include "shard/sharded_state.hpp"

namespace shard {

using queries::Index;

class GrbPipelinedEngine final : public harness::Engine {
 public:
  enum class Mode { kBatch, kIncremental };

  GrbPipelinedEngine(harness::Query q, Mode mode, std::size_t num_shards,
                     std::size_t depth,
                     Partitioner::Scheme scheme = Partitioner::Scheme::kHash);
  ~GrbPipelinedEngine() override;

  [[nodiscard]] std::string name() const override;
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;
  std::vector<std::string> update_stream(
      const std::vector<sm::ChangeSet>& changes) override;

  // --- Streaming building blocks (the daemon's epoch-pinned read API) -----
  // update()/update_stream() are compositions of these two; a long-running
  // service drives them directly so it can keep the window full forever:
  // submit change sets as they arrive, merge (and publish) the oldest epoch
  // whenever the window is full or the ingest queue idles.

  /// Submits one change set as the next epoch (starting the pipeline on
  /// first use). Returns the epoch number, dense from 0 per load(). Throws
  /// if the window already holds depth() un-merged epochs — merge_one()
  /// first — or if initial() has not produced the epoch-0 view yet.
  std::uint64_t submit(const sm::ChangeSet& cs);

  /// The oldest submitted-but-unmerged epoch's answer, tagged with its
  /// epoch number. Blocks on the publication barrier until every shard has
  /// retired that epoch, folds its reports into the publisher-side mirrors
  /// and frees its window slot. Throws grb::InvalidValue when nothing is
  /// in flight.
  struct Merged {
    std::uint64_t epoch = 0;
    std::string answer;
  };
  Merged merge_one();

  /// Epochs submitted but not yet merged (bounded by depth()).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return static_cast<std::size_t>(submitted_ - merged_);
  }

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  /// The underlying state — only safe to inspect with no epochs in flight
  /// (after update()/update_stream() return, the pipeline is drained).
  [[nodiscard]] const ShardedGrbState& state() const { return state_; }

 private:
  /// What one shard's stage publishes for one epoch. Immutable once the
  /// epoch is retired; the merge thread reads it under the publication
  /// barrier and never touches the live shard state.
  struct ShardReport {
    /// Incremental mode: maintained-score entries whose value changed this
    /// epoch (index, new value) — the exact content of the serial engine's
    /// `changed[s]` vector.
    std::vector<std::pair<Index, std::uint64_t>> changed;
    /// Batch mode: this epoch's full recomputed score vector.
    grb::Vector<std::uint64_t> batch_scores{0};
    /// Newborn entities (dense ids) with their external id + timestamp,
    /// captured on the worker while the ids are fresh.
    std::vector<Index> new_comments;
    std::vector<std::pair<sm::NodeId, sm::Timestamp>> new_comment_meta;
    std::vector<Index> new_posts;  // filled by shard 0 only (replicated)
    std::vector<std::pair<sm::NodeId, sm::Timestamp>> new_post_meta;
    bool has_removals = false;
  };
  struct EpochSlot {
    std::vector<ShardReport> reports;  // index = shard
  };

  void ensure_pipeline();
  /// Waits for the oldest un-merged epoch, folds its reports into the
  /// mirrors, replays the serial merge, releases the epoch and returns its
  /// answer.
  std::string merge_next();
  /// The top-k maintainer's value walk over the mirrors: merged post totals
  /// (Q1) or shard s's comments (Q2).
  [[nodiscard]] auto scan_mirror() const;
  void reset_merge_state();

  harness::Query query_;
  Mode mode_;
  std::size_t depth_;
  ShardedGrbState state_;

  /// Worker-side per-shard maintained scores (incremental mode): shard s's
  /// worker thread owns scores_[s] while the pipeline runs; the merge
  /// thread reads only mirror_[s].
  std::vector<grb::Vector<std::uint64_t>> scores_;

  /// Report ring, one slot per window epoch (slot = epoch % depth): shard
  /// workers fill reports[s] before retiring the epoch, the merge thread
  /// consumes them after wait_epoch and frees the slot via release_epoch.
  std::vector<EpochSlot> ring_;
  std::uint64_t submitted_ = 0;
  std::uint64_t merged_ = 0;

  // --- merge-thread-only state (the publisher's epoch-consistent view) ---
  std::vector<sm::NodeId> post_ids_;          // dense post id -> external id
  std::vector<sm::Timestamp> post_ts_;        // dense post id -> timestamp
  std::vector<std::vector<sm::NodeId>> comment_ids_;    // per shard
  std::vector<std::vector<sm::Timestamp>> comment_ts_;  // per shard
  /// Dense mirror of scores_[s]: mirror_[s][i] == scores_[s].at_or(i, 0)
  /// at the merged epoch (incremental mode only).
  std::vector<std::vector<std::uint64_t>> mirror_;
  /// The answer plus its pruning state over the mirrors, folded
  /// publisher-side per epoch so the merge thread stays its only owner (no
  /// shared mutable state on any reader path). Q1: one space over merged
  /// totals; Q2: one per shard's comments. Incremental mode only.
  queries::PrunedTopK top_{3};
};

/// Factory used by the harness registry: variant is "pipelined-batch" or
/// "pipelined-incremental"; num_shards >= 1, depth >= 1.
harness::EnginePtr make_pipelined_engine(const std::string& variant,
                                         harness::Query q,
                                         std::size_t num_shards,
                                         std::size_t depth);

}  // namespace shard
