// Differential suite for the sharding subsystem: the sharded engines must
// produce byte-identical answer sequences to the unsharded GraphBLAS
// engines across seeds × shard counts {1, 2, 4, 7} × Q1/Q2 — the
// determinism guarantee that makes shard count a pure scaling axis. The
// harness's verify_tools throws with a step-level diagnostic on the first
// mismatching answer string.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "datagen/generator.hpp"
#include "grb/detail/check.hpp"
#include "harness/runner.hpp"
#include "model/change.hpp"
#include "shard/sharded_state.hpp"

namespace {

using harness::Query;
using harness::ToolSpec;

std::vector<ToolSpec> reference_and_sharded(int shards) {
  // The unsharded incremental engine sets the reference; both sharded
  // engines must match it byte for byte. The sharded tools run one thread
  // per shard (their fan-out axis).
  std::vector<ToolSpec> tools = {harness::find_tool("grb-incremental")};
  for (const ToolSpec& t : harness::sharded_tools(shards)) tools.push_back(t);
  return tools;
}

// GoogleTest prints a byte dump of GetParam() when it lists and reports a
// case. The explicit zeroed pads fill what would otherwise be uninitialised
// padding (between `scale` and `seed`, and after `shards`), so the dump is
// the same on every build and run.
struct ShardedCase {
  ShardedCase(unsigned sc, std::uint64_t sd, int sh)
      : scale(sc), seed(sd), shards(sh) {}
  unsigned scale;
  unsigned pad = 0;
  std::uint64_t seed;
  int shards;
  int tail_pad = 0;
};
static_assert(std::has_unique_object_representations_v<ShardedCase>,
              "ShardedCase must have no padding bytes");

class ShardedEquivalence : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardedEquivalence, MatchesUnshardedOnQ1AndQ2) {
  const auto p = GetParam();
  const auto ds =
      datagen::generate(datagen::params_for_scale(p.scale, p.seed));
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    EXPECT_NO_THROW(harness::verify_tools(reference_and_sharded(p.shards), q,
                                          ds.initial, ds.changes))
        << "shards=" << p.shards << " seed=" << p.seed
        << " query=" << harness::query_name(q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShardCounts, ShardedEquivalence,
    ::testing::Values(ShardedCase{1, 42, 1}, ShardedCase{1, 42, 2},
                      ShardedCase{1, 42, 4}, ShardedCase{1, 42, 7},
                      ShardedCase{1, 1337, 2}, ShardedCase{1, 1337, 7},
                      ShardedCase{2, 42, 4}, ShardedCase{2, 7, 2},
                      ShardedCase{2, 7, 7}, ShardedCase{2, 1337, 4}),
    [](const ::testing::TestParamInfo<ShardedCase>& info) {
      return "scale" + std::to_string(info.param.scale) + "_seed" +
             std::to_string(info.param.seed) + "_shards" +
             std::to_string(info.param.shards);
    });

TEST(ShardedEquivalence, RemovalHeavyStreamMatches) {
  // Removals leave the monotone fast path: the sharded removal re-rank
  // (merged scans over maintained per-shard scores) must track the
  // unsharded engines over a long stream.
  auto params = datagen::params_for_scale(2, 2024);
  params.change_sets = 30;
  params.insert_elements = 300;
  params.frac_removals = 0.25;
  const auto ds = datagen::generate(params);
  ASSERT_GE(ds.changes.size(), 20u);
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    for (const int shards : {2, 4, 7}) {
      EXPECT_NO_THROW(harness::verify_tools(reference_and_sharded(shards), q,
                                            ds.initial, ds.changes))
          << "shards=" << shards << " query=" << harness::query_name(q);
    }
  }
}

TEST(ShardedEquivalence, BatchReferenceAgreesToo) {
  // Close the triangle: sharded engines vs the unsharded *batch* engine
  // (ground truth with no incremental machinery at all).
  const auto ds = datagen::generate(datagen::params_for_scale(1, 7));
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    std::vector<ToolSpec> tools = {harness::find_tool("grb-batch")};
    for (const ToolSpec& t : harness::sharded_tools(3)) tools.push_back(t);
    EXPECT_NO_THROW(harness::verify_tools(tools, q, ds.initial, ds.changes));
  }
}

TEST(ShardedEquivalence, ApplyEpochCountsLoadAndApplies) {
  // The sharded apply path is guarded against reentrant/concurrent entry in
  // Debug; the same guard's epoch counter is the hook the pipelined-
  // ingestion arc will tag published answers with. load() and each
  // apply_change_set() are one completed scope apiece.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 42));
  shard::ShardedGrbState state(2);
  state.load(ds.initial);
  const sm::ChangeSet empty;
  (void)state.apply_change_set(empty);
  (void)state.apply_change_set(empty);
#if GRB_CHECKS_ENABLED
  EXPECT_EQ(state.apply_epoch(), 3u);  // load + two applies
#else
  EXPECT_EQ(state.apply_epoch(), 0u);  // guard compiles out in Release
#endif
}

TEST(ShardedEquivalence, RegistryExposesShardedVariants) {
  const auto& tools = harness::all_tools();
  int sharded = 0;
  for (const auto& t : tools) {
    if (t.key.rfind("grb-sharded-", 0) == 0) {
      ++sharded;
      EXPECT_EQ(t.shards, 4);
      EXPECT_NE(t.label.find("4 shards"), std::string::npos);
    }
  }
  EXPECT_EQ(sharded, 2);
  // find_tool resolves them; the runner can build and run one end-to-end.
  EXPECT_NO_THROW(harness::find_tool("grb-sharded-incremental"));
}

}  // namespace
