// The paper's GraphBLAS tools as benchmark engines:
//   GrbBatchEngine        — "GraphBLAS Batch": full reevaluation each step.
//   GrbIncrementalEngine  — "GraphBLAS Incremental": Alg. 2 / Fig. 4b lower
//                           half; batch once, then delta maintenance.
//   GrbIncrementalCcEngine — future-work item (2): Q2 keeps a per-comment
//                           incremental connected-components structure, so
//                           reevaluation avoids re-running FastSV entirely
//                           (its Q1 is the GrbIncrementalEngine).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "harness/engine.hpp"
#include "lagraph/incremental_cc.hpp"
#include "queries/grb_state.hpp"
#include "queries/top_k.hpp"

namespace queries {

class GrbBatchEngine final : public harness::Engine {
 public:
  explicit GrbBatchEngine(harness::Query q) : query_(q) {}

  [[nodiscard]] std::string name() const override { return "GraphBLAS Batch"; }
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;

  /// Read access for tests.
  [[nodiscard]] const GrbState& state() const { return state_; }

 private:
  std::string evaluate();

  harness::Query query_;
  GrbState state_;
};

class GrbIncrementalEngine final : public harness::Engine {
 public:
  explicit GrbIncrementalEngine(harness::Query q) : query_(q) {}

  [[nodiscard]] std::string name() const override {
    return "GraphBLAS Incremental";
  }
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;

  [[nodiscard]] const GrbState& state() const { return state_; }
  [[nodiscard]] const grb::Vector<std::uint64_t>& scores() const {
    return scores_;
  }

 private:
  [[nodiscard]] Ranked ranked_of(Index entity, std::uint64_t score) const;
  [[nodiscard]] Index num_entities() const;
  /// The top-k maintainer's value walk over scores_ (one entity space).
  [[nodiscard]] auto scan() const;

  harness::Query query_;
  GrbState state_;
  grb::Vector<std::uint64_t> scores_{0};
  /// The answer plus its pruning state over the maintained entity space
  /// (posts for Q1, comments for Q2).
  PrunedTopK top_{3};
};

/// Q2 only: make_grb_engine("incremental-cc", kQ1) hands out the
/// GrbIncrementalEngine, since Q1 has no CC component.
class GrbIncrementalCcEngine final : public harness::Engine {
 public:
  [[nodiscard]] std::string name() const override {
    return "GraphBLAS Incremental+CC";
  }
  void load(const sm::SocialGraph& g) override;
  std::string initial() override;
  std::string update(const sm::ChangeSet& cs) override;

 private:
  /// Per-comment incremental CC over its likers' friendship subgraph.
  struct CommentCc {
    lagraph::IncrementalCC cc;
    /// user dense id -> local node id inside `cc`.
    std::unordered_map<Index, Index> local;
  };

  void add_like(Index comment, Index user, bool update_index = true);
  /// Rebuilds one comment's union-find from the current matrices (used when
  /// removals invalidate the insert-only structure for that comment).
  void rebuild_comment(Index comment);
  void offer(Index comment);

  GrbState state_;
  std::vector<CommentCc> per_comment_;
  /// user dense id -> comments the user likes (for friendship updates).
  std::vector<std::vector<Index>> liked_by_user_;
  TopK top_{3};
};

/// Factory used by the harness registry.
harness::EnginePtr make_grb_engine(const std::string& variant,
                                   harness::Query q);

}  // namespace queries
