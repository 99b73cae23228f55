// Sharded counterparts of the paper's GraphBLAS engines: the same Q1/Q2
// semantics, with the matrices partitioned across N per-shard GrbStates and
// reevaluation fanned out one shard per OpenMP worker.
//
//   GrbShardedBatchEngine       — full per-shard reevaluation each step,
//                                 merged per answer.
//   GrbShardedIncrementalEngine — per-shard delta maintenance (Alg. 2 /
//                                 Fig. 4b per shard) with a global top-k.
//
// Merge semantics (the determinism guarantee):
//   Q1 — posts are replicated, so every shard maintains a *partial* score
//     vector over the same dense post id space; the global score is the
//     elementwise sum (exact: uint64 adds, each comment counted on exactly
//     one shard). The answer scan walks posts in dense order, identical to
//     the unsharded scan.
//   Q2 — comments are disjoint across shards and scored identically to the
//     unsharded engine (every shard holds the full friendship matrix), so
//     the global top-k is the k-best of the per-shard candidates.
//   Ties break through queries::ranks_before — (score desc, timestamp desc,
//     id asc), a strict total order over distinct entity ids — which makes
//     TopK insertion order-independent and the merged answer byte-identical
//     to GrbBatchEngine / GrbIncrementalEngine at every shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/engine.hpp"
#include "queries/top_k.hpp"
#include "shard/sharded_state.hpp"

namespace shard {

using queries::Index;

class GrbShardedBatchEngine final : public harness::Engine {
 public:
  GrbShardedBatchEngine(harness::Query q, std::size_t num_shards,
                        Partitioner::Scheme scheme = Partitioner::Scheme::kHash)
      : query_(q), state_(num_shards, scheme) {}

  [[nodiscard]] std::string name() const override {
    return "GraphBLAS Sharded Batch";
  }
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;

  [[nodiscard]] const ShardedGrbState& state() const { return state_; }

 private:
  std::string evaluate();

  harness::Query query_;
  ShardedGrbState state_;
};

class GrbShardedIncrementalEngine final : public harness::Engine {
 public:
  GrbShardedIncrementalEngine(
      harness::Query q, std::size_t num_shards,
      Partitioner::Scheme scheme = Partitioner::Scheme::kHash)
      : query_(q), state_(num_shards, scheme) {}

  [[nodiscard]] std::string name() const override {
    return "GraphBLAS Sharded Incremental";
  }
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;

  [[nodiscard]] const ShardedGrbState& state() const { return state_; }

 private:
  /// The top-k maintainer's value walk: merged post totals (Q1) or shard
  /// s's comments (Q2).
  [[nodiscard]] auto scan() const;

  harness::Query query_;
  ShardedGrbState state_;
  /// scores_[s]: shard s's maintained score vector — partial post scores
  /// for Q1 (summed across shards on merge), full scores of shard-owned
  /// comments for Q2.
  std::vector<grb::Vector<std::uint64_t>> scores_;
  /// The global answer plus its pruning state, owned by the update thread:
  /// one entity space over the replicated posts for Q1, one per shard's
  /// comments for Q2.
  queries::PrunedTopK top_{3};
};

/// Factory used by the harness registry: variant is "sharded-batch" or
/// "sharded-incremental"; num_shards >= 1.
harness::EnginePtr make_sharded_engine(const std::string& variant,
                                       harness::Query q,
                                       std::size_t num_shards);

}  // namespace shard
