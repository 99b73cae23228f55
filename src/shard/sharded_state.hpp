// ShardedGrbState: N independent per-shard GrbStates behind one
// ChangeSetRouter. Loading splits the initial graph; applying a change set
// routes it and applies every per-shard piece in parallel (one OpenMP
// worker per shard). The per-shard states never communicate: comments (and their
// likes) are disjoint across shards, users/posts/friendships are replicated
// with identical dense ids everywhere, so the engines above merge results
// with plain sums (Q1) and a top-k union (Q2).
//
// Two ingestion modes share the routed representation (RoutedChangeSet —
// route once, apply many):
//   * Serial barrier mode — apply_change_set / apply_routed: all shards
//     apply epoch t, join, then t+1. Guarded by the state-wide
//     ReentrancyGuard exactly as before.
//   * Pipelined mode — begin_pipeline / apply_async / wait_epoch /
//     release_epoch: a bounded EpochPipeline with one dedicated worker
//     thread per shard lets shard i apply epoch t+1 while shard j still
//     works on t. The state-wide guard is deliberately *relaxed* here to
//     the per-shard guards inside each GrbState::apply_change_set (per-
//     shard epochs): cross-shard overlap is the point, per-shard order is
//     still enforced — a pipeline bug dispatching two epochs to one shard
//     concurrently aborts in Debug builds just like a serial misuse would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "grb/detail/check.hpp"
#include "grb/detail/pipeline.hpp"
#include "queries/grb_state.hpp"
#include "shard/router.hpp"

namespace shard {

class ShardedGrbState {
 public:
  explicit ShardedGrbState(std::size_t num_shards,
                           Partitioner::Scheme scheme = Partitioner::Scheme::kHash)
      : router_(Partitioner(num_shards, scheme)) {}

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return router_.num_shards();
  }
  [[nodiscard]] const ChangeSetRouter& router() const noexcept {
    return router_;
  }
  [[nodiscard]] const queries::GrbState& shard(std::size_t s) const {
    return states_.at(s);
  }

  /// Splits `g` and builds every shard's matrices (parallel across shards).
  void load(const sm::SocialGraph& g);

  /// Routes `cs` and applies each piece to its shard (parallel across
  /// shards). Returns one GrbDelta per shard, index-aligned with shard ids;
  /// shards the set never touched get an empty delta.
  [[nodiscard]] std::vector<queries::GrbDelta> apply_change_set(
      const sm::ChangeSet& cs);

  /// Routes without applying. Single-producer: the router is stateful.
  [[nodiscard]] RoutedChangeSet route(const sm::ChangeSet& cs) {
    return router_.route(cs);
  }

  /// Applies an already-routed change set (serial barrier mode). Same
  /// semantics as apply_change_set minus the routing work.
  [[nodiscard]] std::vector<queries::GrbDelta> apply_routed(
      const RoutedChangeSet& routed);

  // --- Pipelined ingestion -------------------------------------------------

  /// Per-shard pipeline stage: runs on shard `shard`'s dedicated worker
  /// thread right after the shard applied its piece of epoch `epoch`. The
  /// delta is handed over by value: the stage owns it.
  using ShardStage = std::function<void(
      std::size_t shard, std::uint64_t epoch, queries::GrbDelta delta)>;

  /// Starts the ingestion pipeline: `depth` epochs of window, one worker
  /// thread per shard, `stage` invoked per (shard, epoch). Requires a
  /// loaded state and no active pipeline.
  void begin_pipeline(std::size_t depth, ShardStage stage);

  /// Submits a routed change set as the next epoch. Throws if the window
  /// already holds `depth` un-released epochs (drain first) or if a stage
  /// failed. Returns the epoch number (dense from 0 per begin_pipeline).
  std::uint64_t apply_async(RoutedChangeSet routed);

  /// Routes and submits in one step (the common producer-side call).
  std::uint64_t apply_async(const sm::ChangeSet& cs) {
    return apply_async(router_.route(cs));
  }

  /// Publication barrier: returns once every shard has retired `epoch`
  /// (applied it and finished its stage). Rethrows stage failures.
  void wait_epoch(std::uint64_t epoch);

  /// Frees `epoch`'s window slot. Only after wait_epoch(epoch).
  void release_epoch(std::uint64_t epoch);

  /// Epochs shard `s` has retired (its per-shard epoch cursor); 0 with no
  /// active pipeline.
  [[nodiscard]] std::uint64_t shard_epoch(std::size_t s) const;

  /// Epochs submitted but not yet released.
  [[nodiscard]] std::size_t epochs_in_flight() const;

  [[nodiscard]] bool pipeline_active() const noexcept {
    return pipeline_ != nullptr;
  }

  /// Drains every published epoch, joins the workers and tears the
  /// pipeline down. Serial mode (and load()) become legal again. Idempotent.
  void end_pipeline();

  /// Runs f(shard_id) for every shard — in parallel when the thread budget
  /// allows. The engines run their per-shard reevaluations through this.
  /// f must only touch shard-local state; exceptions are
  /// collected and the first one rethrown after the join.
  void for_each_shard(const std::function<void(std::size_t)>& f);

  /// Completed load/apply scopes (Debug builds; always 0 in Release). The
  /// pipelined-ingestion arc will publish answers tagged with this.
  [[nodiscard]] std::uint64_t apply_epoch() const noexcept {
    return apply_guard_.epoch();
  }

 private:
  void require_no_pipeline(const char* what) const;

  ChangeSetRouter router_;
  std::vector<queries::GrbState> states_;
  /// Debug reentrancy/epoch guard on the serial apply path (no-op in
  /// Release). Pipelined mode relaxes this to the per-shard guards.
  grb::detail::ReentrancyGuard apply_guard_;
  /// Pipelined-mode state. ring_ holds one RoutedChangeSet per window slot
  /// (slot = epoch % depth): the producer writes a slot between reserve()
  /// and publish(), workers read it until the epoch is released — the
  /// EpochPipeline window protocol is exactly the slot-ownership protocol.
  ShardStage stage_;
  std::vector<RoutedChangeSet> ring_;
  /// Declared last: its destructor joins the worker threads before any
  /// state they touch is torn down.
  std::unique_ptr<grb::detail::EpochPipeline> pipeline_;
};

}  // namespace shard
