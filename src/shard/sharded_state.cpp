#include "shard/sharded_state.hpp"

#include <string>
#include <vector>

#include "grb/detail/check.hpp"
#include "grb/detail/parallel.hpp"
#include "support/telemetry/trace.hpp"

namespace shard {

namespace telemetry = grbsm::telemetry;

void ShardedGrbState::for_each_shard(
    const std::function<void(std::size_t)>& f) {
  // parallel_tasks owns the omp pragma (one worker per shard, dynamic
  // dispatch), the exception-collecting join, and the debug overlap claim
  // per shard id.
  grb::detail::parallel_tasks(
      static_cast<grb::Index>(num_shards()),
      [&](grb::Index s) { f(static_cast<std::size_t>(s)); });
}

void ShardedGrbState::load(const sm::SocialGraph& g) {
  require_no_pipeline("load");
  const grb::detail::ReentrancyScope scope(apply_guard_,
                                           "ShardedGrbState::load");
  const std::vector<sm::SocialGraph> parts = router_.split_graph(g);
  states_.assign(num_shards(), queries::GrbState{});
  for_each_shard([&](std::size_t s) {
    states_[s] = queries::GrbState::from_graph(parts[s]);
  });
}

std::vector<queries::GrbDelta> ShardedGrbState::apply_change_set(
    const sm::ChangeSet& cs) {
  return apply_routed(router_.route(cs));
}

std::vector<queries::GrbDelta> ShardedGrbState::apply_routed(
    const RoutedChangeSet& routed) {
  require_no_pipeline("apply_routed");
  // The serial apply path is externally serial (one change set at a time);
  // the epoch guard turns an accidental concurrent or reentrant apply into
  // an immediate debug abort instead of silently corrupted shard states.
  // Pipelined mode bypasses this state-wide guard by design — per-shard
  // order is then enforced by each GrbState's own guard.
  const grb::detail::ReentrancyScope scope(apply_guard_,
                                           "ShardedGrbState::apply_routed");
  if (routed.parts.size() != num_shards()) {
    throw grb::InvalidValue(
        "ShardedGrbState::apply_routed: routed for " +
        std::to_string(routed.parts.size()) + " shards, state has " +
        std::to_string(num_shards()));
  }
  std::vector<queries::GrbDelta> deltas(num_shards());
  for_each_shard([&](std::size_t s) {
    deltas[s] = states_[s].apply_change_set(routed.parts[s]);
  });
  return deltas;
}

void ShardedGrbState::begin_pipeline(std::size_t depth, ShardStage stage) {
  if (pipeline_) {
    throw grb::InvalidValue(
        "ShardedGrbState::begin_pipeline: pipeline already active");
  }
  if (depth == 0) {
    throw grb::InvalidValue(
        "ShardedGrbState::begin_pipeline: depth must be >= 1");
  }
  if (states_.empty()) {
    throw grb::InvalidValue(
        "ShardedGrbState::begin_pipeline: load() a graph first");
  }
  stage_ = std::move(stage);
  ring_.assign(depth, RoutedChangeSet{});
  // Per-shard reevaluate timings under stable dotted names, resolved once
  // here so the worker records through cached references (the registry
  // mutex never sits on the apply path). "apply" trace spans carry the
  // published 1-based epoch id (engine epoch e publishes snapshot e + 1).
  telemetry::Histogram* apply_all =
      &telemetry::Registry::instance().histogram("epoch.apply_us");
  std::vector<telemetry::Histogram*> apply_per_shard;
  apply_per_shard.reserve(num_shards());
  for (std::size_t s = 0; s < num_shards(); ++s) {
    apply_per_shard.push_back(&telemetry::Registry::instance().histogram(
        "epoch.shard" + std::to_string(s) + ".apply_us"));
  }
  pipeline_ = std::make_unique<grb::detail::EpochPipeline>(
      num_shards(), depth,
      [this, apply_all, apply_per_shard = std::move(apply_per_shard)](
          std::size_t s, std::uint64_t e) {
        // Worker thread for shard s, epoch e: apply this shard's piece of
        // the routed set, then hand the delta to the stage.
        // GrbState::apply_change_set's own reentrancy guard still watches
        // the per-shard apply order.
        telemetry::SpanScope span("apply", e + 1, apply_per_shard[s],
                                  apply_all);
        const RoutedChangeSet& routed = ring_[e % ring_.size()];
        queries::GrbDelta delta = states_[s].apply_change_set(routed.parts[s]);
        if (stage_) stage_(s, e, std::move(delta));
      });
}

std::uint64_t ShardedGrbState::apply_async(RoutedChangeSet routed) {
  if (!pipeline_) {
    throw grb::InvalidValue(
        "ShardedGrbState::apply_async: begin_pipeline() first");
  }
  if (routed.parts.size() != num_shards()) {
    throw grb::InvalidValue(
        "ShardedGrbState::apply_async: routed for " +
        std::to_string(routed.parts.size()) + " shards, state has " +
        std::to_string(num_shards()));
  }
  // reserve() throws on a full window, so the slot write below only ever
  // targets a slot whose previous epoch has been released.
  const std::uint64_t e = pipeline_->reserve();
  ring_[e % ring_.size()] = std::move(routed);
  pipeline_->publish(e);
  return e;
}

void ShardedGrbState::wait_epoch(std::uint64_t epoch) {
  if (!pipeline_) {
    throw grb::InvalidValue(
        "ShardedGrbState::wait_epoch: no active pipeline");
  }
  pipeline_->wait_retired(epoch);
}

void ShardedGrbState::release_epoch(std::uint64_t epoch) {
  if (!pipeline_) {
    throw grb::InvalidValue(
        "ShardedGrbState::release_epoch: no active pipeline");
  }
  pipeline_->release(epoch);
}

std::uint64_t ShardedGrbState::shard_epoch(std::size_t s) const {
  if (!pipeline_) return 0;
  return pipeline_->retired_by(s);
}

std::size_t ShardedGrbState::epochs_in_flight() const {
  if (!pipeline_) return 0;
  return pipeline_->in_flight();
}

void ShardedGrbState::end_pipeline() {
  pipeline_.reset();  // drains published epochs, joins the workers
  ring_.clear();
  stage_ = nullptr;
}

void ShardedGrbState::require_no_pipeline(const char* what) const {
  if (pipeline_) {
    throw grb::InvalidValue(std::string("ShardedGrbState::") + what +
                            ": illegal while the ingestion pipeline is "
                            "active — end_pipeline() first");
  }
}

}  // namespace shard
