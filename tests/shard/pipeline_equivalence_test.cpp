// Differential suite for the pipelined ingestion engines: at every (shard
// count, pipeline depth) in the matrix, the pipelined engines' answer
// sequences must be byte-identical to the serial schedule — the unsharded
// incremental reference — on Q1 and Q2, including removal-heavy streams
// (the Q2 removal re-rank path with its full ranks_before scan order) and
// a mid-stream drain/re-fill cycle that empties the window and refills it.
// verify_tools runs every tool through run_once, whose update phase is one
// update_stream call, so the pipelined tools exercise their real overlap
// schedule here, not a degenerate one-at-a-time path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "datagen/generator.hpp"
#include "grb/types.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "model/change.hpp"
#include "shard/pipelined_engine.hpp"
#include "shard/sharded_state.hpp"

namespace {

using harness::Query;
using harness::ToolSpec;

std::vector<ToolSpec> reference_and_pipelined(int shards, int depth) {
  // The unsharded incremental engine sets the reference (the serial
  // schedule); both pipelined engines must match it byte for byte.
  std::vector<ToolSpec> tools = {harness::find_tool("grb-incremental")};
  for (const ToolSpec& t : harness::pipelined_tools(shards, depth)) {
    tools.push_back(t);
  }
  return tools;
}

// GoogleTest prints a byte dump of GetParam() when it lists and reports a
// case. The explicit zeroed `pad` fills what would otherwise be
// uninitialised padding between `scale` and `seed`, so the dump is the same
// on every build and run.
struct PipelineCase {
  PipelineCase(unsigned sc, std::uint64_t sd, int sh, int d)
      : scale(sc), seed(sd), shards(sh), depth(d) {}
  unsigned scale;
  unsigned pad = 0;
  std::uint64_t seed;
  int shards;
  int depth;
};
static_assert(std::has_unique_object_representations_v<PipelineCase>,
              "PipelineCase must have no padding bytes");

class PipelineEquivalence : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEquivalence, MatchesSerialScheduleOnQ1AndQ2) {
  const auto p = GetParam();
  const auto ds =
      datagen::generate(datagen::params_for_scale(p.scale, p.seed));
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    EXPECT_NO_THROW(harness::verify_tools(
        reference_and_pipelined(p.shards, p.depth), q, ds.initial,
        ds.changes))
        << "shards=" << p.shards << " depth=" << p.depth
        << " seed=" << p.seed << " query=" << harness::query_name(q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByDepths, PipelineEquivalence,
    ::testing::Values(
        // Full shard-count axis at depth 2, full depth axis at 4 shards,
        // plus the corners (1 shard deep-pipelined, 7 shards × depth 4) and
        // a second seed/scale on the interesting combinations.
        PipelineCase{1, 42, 1, 1}, PipelineCase{1, 42, 1, 4},
        PipelineCase{1, 42, 2, 2}, PipelineCase{1, 42, 4, 1},
        PipelineCase{1, 42, 4, 2}, PipelineCase{1, 42, 4, 4},
        PipelineCase{1, 42, 7, 2}, PipelineCase{1, 42, 7, 4},
        PipelineCase{1, 1337, 2, 4}, PipelineCase{1, 1337, 7, 1},
        PipelineCase{2, 7, 2, 2}, PipelineCase{2, 7, 7, 4},
        PipelineCase{2, 1337, 4, 4}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return "scale" + std::to_string(info.param.scale) + "_seed" +
             std::to_string(info.param.seed) + "_shards" +
             std::to_string(info.param.shards) + "_depth" +
             std::to_string(info.param.depth);
    });

TEST(PipelineEquivalence, RemovalHeavyStreamMatches) {
  // Removals leave the monotone fast path: every merged answer after a
  // removal epoch is a full re-rank from the publisher-side mirrors, which
  // must reproduce the serial scan (same candidate order, same
  // ranks_before tie handling) while later epochs are already applying on
  // the shard workers.
  auto params = datagen::params_for_scale(2, 2024);
  params.change_sets = 30;
  params.insert_elements = 300;
  params.frac_removals = 0.25;
  const auto ds = datagen::generate(params);
  ASSERT_GE(ds.changes.size(), 20u);
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    for (const int shards : {2, 4}) {
      for (const int depth : {2, 4}) {
        EXPECT_NO_THROW(harness::verify_tools(
            reference_and_pipelined(shards, depth), q, ds.initial,
            ds.changes))
            << "shards=" << shards << " depth=" << depth
            << " query=" << harness::query_name(q);
      }
    }
  }
}

TEST(PipelineEquivalence, MidStreamDrainAndRefillMatches) {
  // Mixing the streamed API with single update() calls drains the window
  // mid-stream (update() merges everything in flight) and refills it; the
  // concatenated answers must still equal the serial schedule.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 99));
  ASSERT_GE(ds.changes.size(), 8u);
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    const auto reference = harness::run_once(
        harness::find_tool("grb-incremental"), q, ds.initial, ds.changes);

    const ToolSpec tool = harness::pipelined_tools(4, 4)[1];
    ASSERT_EQ(tool.key, "grb-pipelined-incremental");
    harness::EnginePtr engine = harness::make_engine(tool, q);
    engine->load(ds.initial);
    ASSERT_EQ(engine->initial(), reference.initial_answer);

    const std::size_t cut1 = ds.changes.size() / 2;
    std::vector<std::string> answers;
    // First chunk streams (fills and drains the window) ...
    const std::vector<sm::ChangeSet> chunk1(ds.changes.begin(),
                                            ds.changes.begin() + cut1);
    for (auto& a : engine->update_stream(chunk1)) {
      answers.push_back(std::move(a));
    }
    // ... one synchronous update drains whatever the stream left behind ...
    answers.push_back(engine->update(ds.changes[cut1]));
    // ... and the tail re-fills the pipeline from an emptied window.
    const std::vector<sm::ChangeSet> chunk2(
        ds.changes.begin() + static_cast<std::ptrdiff_t>(cut1) + 1,
        ds.changes.end());
    for (auto& a : engine->update_stream(chunk2)) {
      answers.push_back(std::move(a));
    }
    EXPECT_EQ(answers, reference.update_answers)
        << "query=" << harness::query_name(q);
  }
}

TEST(PipelineEquivalence, EmptyStreamIsANoOp) {
  // update_stream({}) must return an empty answer vector without reserving
  // an epoch or tripping the publication barrier — the daemon's writer
  // loop can legitimately hand an engine an empty batch between bursts.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 42));
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    const auto reference = harness::run_once(
        harness::find_tool("grb-incremental"), q, ds.initial, ds.changes);

    const ToolSpec tool = harness::pipelined_tools(2, 2)[1];
    ASSERT_EQ(tool.key, "grb-pipelined-incremental");
    harness::EnginePtr engine = harness::make_engine(tool, q);
    engine->load(ds.initial);
    ASSERT_EQ(engine->initial(), reference.initial_answer);

    auto* pipelined = dynamic_cast<shard::GrbPipelinedEngine*>(engine.get());
    ASSERT_NE(pipelined, nullptr);
    EXPECT_TRUE(engine->update_stream({}).empty());
    EXPECT_EQ(pipelined->in_flight(), 0u);
    // No epoch was submitted, so the worker threads never even spun up.
    EXPECT_FALSE(pipelined->state().pipeline_active());

    // The engine is unharmed: the real stream still matches the serial
    // schedule, and a trailing empty stream stays a no-op.
    EXPECT_EQ(engine->update_stream(ds.changes), reference.update_answers);
    EXPECT_TRUE(engine->update_stream({}).empty());
    EXPECT_EQ(pipelined->in_flight(), 0u);
  }
}

TEST(PipelineEquivalence, EmptyChangeSetWithinStreamIsAnEpoch) {
  // An empty *change set* inside a stream is different from an empty
  // stream: it is a real epoch whose answer equals the previous one, and
  // the pipelined schedule must agree with the serial engines on it.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 7));
  std::vector<sm::ChangeSet> changes = ds.changes;
  changes.insert(changes.begin(), sm::ChangeSet{});
  changes.insert(changes.begin() + 2, sm::ChangeSet{});
  changes.push_back(sm::ChangeSet{});
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    EXPECT_NO_THROW(harness::verify_tools(reference_and_pipelined(2, 4), q,
                                          ds.initial, changes))
        << "query=" << harness::query_name(q);
  }
}

TEST(PipelineEquivalence, SubmitMergeOneStreamingApi) {
  // The daemon's building blocks: submit() returns dense epochs, a full
  // window throws instead of blocking, merge_one() returns epoch-tagged
  // answers in order and merging with nothing in flight throws.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 42));
  const auto reference =
      harness::run_once(harness::find_tool("grb-incremental"),
                        Query::kQ2, ds.initial, ds.changes);
  ASSERT_GE(ds.changes.size(), 3u);

  shard::GrbPipelinedEngine engine(
      Query::kQ2, shard::GrbPipelinedEngine::Mode::kIncremental,
      /*num_shards=*/2, /*depth=*/2);
  engine.load(ds.initial);
  EXPECT_THROW((void)engine.merge_one(), grb::InvalidValue);
  ASSERT_EQ(engine.initial(), reference.initial_answer);

  EXPECT_EQ(engine.submit(ds.changes[0]), 0u);
  EXPECT_EQ(engine.submit(ds.changes[1]), 1u);
  EXPECT_EQ(engine.in_flight(), 2u);
  EXPECT_THROW((void)engine.submit(ds.changes[2]), grb::InvalidValue);

  const auto m0 = engine.merge_one();
  EXPECT_EQ(m0.epoch, 0u);
  EXPECT_EQ(m0.answer, reference.update_answers[0]);
  EXPECT_EQ(engine.submit(ds.changes[2]), 2u);
  const auto m1 = engine.merge_one();
  const auto m2 = engine.merge_one();
  EXPECT_EQ(m1.epoch, 1u);
  EXPECT_EQ(m1.answer, reference.update_answers[1]);
  EXPECT_EQ(m2.epoch, 2u);
  EXPECT_EQ(m2.answer, reference.update_answers[2]);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_THROW((void)engine.merge_one(), grb::InvalidValue);
}

TEST(PipelineEquivalence, ShardEpochCursorsAdvancePerShard) {
  // Direct state-level coverage of the pipeline API: per-shard epoch
  // cursors reach every submitted epoch at the barrier, release frees the
  // window, and serial entry points are rejected while the pipeline runs.
  const auto ds = datagen::generate(datagen::params_for_scale(1, 42));
  shard::ShardedGrbState state(3);
  state.load(ds.initial);
  std::atomic<int> stages{0};
  state.begin_pipeline(
      2, [&](std::size_t, std::uint64_t, queries::GrbDelta) { ++stages; });
  EXPECT_TRUE(state.pipeline_active());
  EXPECT_THROW((void)state.apply_change_set(ds.changes.at(0)),
               grb::InvalidValue);

  const sm::ChangeSet empty;
  EXPECT_EQ(state.apply_async(empty), 0u);
  EXPECT_EQ(state.apply_async(empty), 1u);
  // Window full (depth 2, nothing released): a third submit must throw,
  // not block — the producer is the only drain thread.
  EXPECT_THROW((void)state.apply_async(empty), grb::InvalidValue);
  state.wait_epoch(1);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(state.shard_epoch(s), 2u);
  EXPECT_EQ(stages.load(), 6);  // 3 shards × 2 epochs
  state.release_epoch(0);
  state.release_epoch(1);
  EXPECT_EQ(state.epochs_in_flight(), 0u);
  EXPECT_EQ(state.apply_async(empty), 2u);
  state.wait_epoch(2);
  state.release_epoch(2);
  state.end_pipeline();
  EXPECT_FALSE(state.pipeline_active());
  // Serial mode is legal again, and route-once/apply-once still works.
  (void)state.apply_routed(state.route(empty));
}

TEST(PipelineEquivalence, RegistryExposesPipelinedVariants) {
  const auto& tools = harness::all_tools();
  int pipelined = 0;
  for (const auto& t : tools) {
    if (t.key.rfind("grb-pipelined-", 0) == 0) {
      ++pipelined;
      EXPECT_EQ(t.shards, 4);
      EXPECT_GE(t.pipeline, 1);
      EXPECT_NE(t.label.find("4 shards"), std::string::npos);
      EXPECT_NE(t.label.find("depth"), std::string::npos);
    }
  }
  EXPECT_EQ(pipelined, 2);
  EXPECT_NO_THROW(harness::find_tool("grb-pipelined-incremental"));
  // The key alone is ambiguous (no shard count / depth): key-only
  // construction must refuse rather than guess.
  EXPECT_THROW((void)harness::make_engine("grb-pipelined-incremental",
                                          harness::Query::kQ2),
               grb::InvalidValue);
}

}  // namespace
