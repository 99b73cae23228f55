// Allocation-regression tests for the workspace arena: after a warm-up
// pass, the iteration loops the paper measures (Q1 batch recompute, the
// incremental update loop, repeated pagerank) must lease every buffer from
// the pool — zero workspace misses. A miss regression here means some
// container with pool-origin storage retired without grb::recycle (rebuild
// with -DGRB_WORKSPACE_TRACE_MISSES to see the leaking lease sites).
//
// All loops run under a pinned single thread: lease sequences are then
// deterministic, which is what makes an exact zero-miss assertion sound.
#include <gtest/gtest.h>

#include "datagen/generator.hpp"
#include "grb/context.hpp"
#include "lagraph/pagerank.hpp"
#include "queries/engines.hpp"
#include "queries/q1.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

using grbsm::telemetry::Registry;
using grbsm::telemetry::RegistrySnapshot;
using queries::GrbState;

/// The arena's activity since `before`, read through the metrics registry.
grb::WorkspaceStats arena_since(const RegistrySnapshot& before) {
  return grb::arena_stats_of(
      Registry::instance().snapshot().delta_since(before));
}

TEST(ArenaRegression, Q1BatchLoopStaysAllocationFree) {
  const auto ds = datagen::generate(datagen::params_for_scale(1));
  grb::ThreadGuard guard(1);
  auto state = GrbState::from_graph(ds.initial);
  grb::trim_workspace();
  // Warm-up: two evaluations settle the pool into the loop's equilibrium.
  grb::recycle(queries::q1_batch_scores(state));
  grb::recycle(queries::q1_batch_scores(state));
  const RegistrySnapshot before = Registry::instance().snapshot();
  for (int i = 0; i < 3; ++i) {
    grb::recycle(queries::q1_batch_scores(state));
  }
  const grb::WorkspaceStats loop = arena_since(before);
  EXPECT_EQ(loop.misses, 0u) << "Q1 batch loop hit the allocator";
  EXPECT_GT(loop.leases(), 0u);  // the loop does use the arena
}

TEST(ArenaRegression, IncrementalUpdateLoopStaysAllocationFree) {
  // The Fig. 5 hot path: apply change set + incremental reevaluation, once
  // per change set — exactly what the CI smoke gate checks at bench scale.
  const auto ds = datagen::generate(datagen::params_for_scale(1));
  ASSERT_FALSE(ds.changes.empty());
  grb::ThreadGuard guard(1);
  grb::trim_workspace();
  const auto run = [&]() {
    queries::GrbIncrementalEngine engine(harness::Query::kQ1);
    engine.load(ds.initial);
    engine.initial();
    for (const auto& cs : ds.changes) {
      engine.update(cs);
    }
  };
  run();  // warm-up 1: cold start populates the pool
  run();  // warm-up 2: settles the per-run equilibrium
  queries::GrbIncrementalEngine engine(harness::Query::kQ1);
  engine.load(ds.initial);
  engine.initial();
  const RegistrySnapshot before = Registry::instance().snapshot();
  for (const auto& cs : ds.changes) {
    engine.update(cs);
  }
  const grb::WorkspaceStats loop = arena_since(before);
  EXPECT_EQ(loop.misses, 0u)
      << "incremental update loop hit the allocator";
  EXPECT_GT(loop.leases(), 0u);
}

TEST(ArenaRegression, PagerankRepeatedCallsStayAllocationFree) {
  // n > the parallel-fold chunk so the leased reduction scratch engages.
  const grb::Index n = 6000;
  std::vector<grb::Tuple<grb::Bool>> edges;
  for (grb::Index i = 0; i < n; ++i) {
    edges.push_back({i, (i + 1) % n, grb::Bool{1}});
    edges.push_back({i, (i * 7 + 3) % n, grb::Bool{1}});
  }
  const auto adj =
      grb::Matrix<grb::Bool>::build(n, n, std::move(edges), grb::LOr<grb::Bool>{});
  grb::ThreadGuard guard(1);
  grb::trim_workspace();
  const auto run = [&]() {
    auto result = lagraph::pagerank(adj);
    // The converged rank vector leaves the arena with the result; hand its
    // storage back the way an iteration-carried caller would.
    grb::detail::workspace().donate(std::move(result.rank));
  };
  run();
  run();
  const RegistrySnapshot before = Registry::instance().snapshot();
  run();
  const grb::WorkspaceStats loop = arena_since(before);
  EXPECT_EQ(loop.misses, 0u) << "pagerank loop hit the allocator";
  EXPECT_GT(loop.leases(), 0u);
}

}  // namespace
