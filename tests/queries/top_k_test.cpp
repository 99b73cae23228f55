#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "queries/top_k.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

using queries::Ranked;
using queries::TopK;

TEST(Ranking, ScoreDominates) {
  EXPECT_TRUE(queries::ranks_before({1, 10, 0}, {2, 5, 100}));
  EXPECT_FALSE(queries::ranks_before({1, 5, 100}, {2, 10, 0}));
}

TEST(Ranking, TimestampBreaksScoreTies) {
  // More recent first (contest rule).
  EXPECT_TRUE(queries::ranks_before({1, 5, 200}, {2, 5, 100}));
  EXPECT_FALSE(queries::ranks_before({1, 5, 100}, {2, 5, 200}));
}

TEST(Ranking, IdBreaksFullTies) {
  EXPECT_TRUE(queries::ranks_before({1, 5, 100}, {2, 5, 100}));
  EXPECT_FALSE(queries::ranks_before({2, 5, 100}, {1, 5, 100}));
}

TEST(TopK, KeepsBestThreeSorted) {
  TopK t(3);
  t.offer({1, 10, 0});
  t.offer({2, 30, 0});
  t.offer({3, 20, 0});
  t.offer({4, 5, 0});
  EXPECT_EQ(t.answer(), "2|3|1");
  EXPECT_EQ(t.entries().size(), 3u);
}

TEST(TopK, FewerThanKEntities) {
  TopK t(3);
  t.offer({7, 1, 0});
  EXPECT_EQ(t.answer(), "7");
  t.offer({8, 2, 0});
  EXPECT_EQ(t.answer(), "8|7");
}

TEST(TopK, ReofferReplacesStaleScore) {
  TopK t(3);
  t.offer({1, 10, 0});
  t.offer({2, 20, 0});
  t.offer({3, 30, 0});
  t.offer({1, 100, 0});  // entity 1 improved
  EXPECT_EQ(t.answer(), "1|3|2");
  EXPECT_EQ(t.entries().size(), 3u);
}

TEST(TopK, MonotoneStreamMaintainsAnswer) {
  // The incremental engines' contract: offering every changed entity keeps
  // the answer identical to a full rescan, as long as scores never decrease.
  std::vector<Ranked> all = {
      {1, 5, 10}, {2, 5, 20}, {3, 7, 5}, {4, 0, 99}, {5, 2, 50}};
  TopK incremental = queries::top_k_of(3, all);
  // Entity 4 jumps to the top.
  for (auto& r : all) {
    if (r.id == 4) r.score = 100;
  }
  incremental.offer({4, 100, 99});
  EXPECT_EQ(incremental.answer(), queries::top_k_of(3, all).answer());
}

TEST(TopK, ZeroScoreEntitiesRankByRecency) {
  TopK t(3);
  t.offer({1, 0, 100});
  t.offer({2, 0, 300});
  t.offer({3, 0, 200});
  EXPECT_EQ(t.answer(), "2|3|1");
}

TEST(TopKOf, FullScanAgainstManualOrder) {
  const std::vector<Ranked> all = {
      {10, 3, 5}, {11, 3, 9}, {12, 1, 0}, {13, 9, 1}, {14, 3, 9}};
  // Order: 13 (9) > 11 (3, ts9, id11) > 14 (3, ts9, id14) > 10 > 12.
  EXPECT_EQ(queries::top_k_of(3, all).answer(), "13|11|14");
  EXPECT_EQ(queries::top_k_of(1, all).answer(), "13");
  EXPECT_EQ(queries::top_k_of(5, all).entries().size(), 5u);
}

TEST(TopK, ClearEmptiesAnswer) {
  TopK t(3);
  t.offer({1, 1, 1});
  t.clear();
  EXPECT_EQ(t.answer(), "");
}

// --- Threshold-pruned extraction primitives ---------------------------------

using queries::BlockBounds;
using queries::CandidatePool;
using queries::Index;
using queries::PruneStats;

TEST(BlockCanBeat, UnfilledTopKNeverSkips) {
  TopK t(3);
  t.offer({1, 100, 0});
  t.offer({2, 90, 0});
  EXPECT_TRUE(queries::block_can_beat(t, 0));
}

TEST(BlockCanBeat, BoundAboveThresholdScans) {
  TopK t(2);
  t.offer({1, 100, 0});
  t.offer({2, 50, 0});
  EXPECT_TRUE(queries::block_can_beat(t, 51));
  EXPECT_FALSE(queries::block_can_beat(t, 49));
}

TEST(BlockCanBeat, BoundEqualToThresholdMustScan) {
  // An entity at exactly the bound can still win the tie on timestamp (or
  // on id) — skipping here would break byte-identity with the full scan.
  TopK t(2);
  t.offer({1, 100, 0});
  t.offer({2, 50, 10});
  EXPECT_TRUE(queries::block_can_beat(t, 50));
}

TEST(BlockCanBeat, ZeroScoresRankByRecencySoZeroBoundScans) {
  // When the kth entry's score is 0, recency decides the answer and a
  // zero-bound block can still hold the winner.
  TopK t(2);
  t.offer({1, 0, 500});
  t.offer({2, 0, 400});
  EXPECT_TRUE(queries::block_can_beat(t, 0));
}

TEST(BlockBounds, RaiseTracksPerBlockMaxima) {
  BlockBounds bb(4);
  bb.reset(10);  // blocks [0,4) [4,8) [8,10)
  EXPECT_EQ(bb.num_blocks(), 3u);
  bb.raise(0, 7);
  bb.raise(3, 5);
  bb.raise(9, 11);
  EXPECT_EQ(bb.bound(0), 7u);
  EXPECT_EQ(bb.bound(1), 0u);
  EXPECT_EQ(bb.bound(2), 11u);
  bb.raise(0, 3);  // raise-only: never lowers
  EXPECT_EQ(bb.bound(0), 7u);
}

TEST(BlockBounds, ResizeKeepsExistingAndCoversNewborns) {
  BlockBounds bb(4);
  bb.reset(4);
  bb.raise(2, 9);
  bb.resize(10);
  EXPECT_EQ(bb.num_blocks(), 3u);
  EXPECT_EQ(bb.bound(0), 9u);
  EXPECT_EQ(bb.bound(2), 0u);
  bb.resize(6);  // shrinking request is a no-op
  EXPECT_EQ(bb.num_entities(), 10u);
}

TEST(BlockBounds, LoweringLeavesStaleHighBoundUntilBudget) {
  std::vector<std::uint64_t> values(8, 0);
  const auto value_of = [&](Index i) { return values[i]; };
  BlockBounds bb(8);
  bb.reset(8);
  values[3] = 100;
  bb.raise(3, 100);
  PruneStats st;
  // Lower entity 3 repeatedly: the bound must stay a valid upper bound
  // (stale-high is fine) until the staleness budget forces an exact rebuild.
  for (std::uint32_t n = 1; n < queries::kStaleBudget; ++n) {
    values[3] -= 1;
    bb.note_change(3, values[3], /*may_lower=*/true, value_of, st);
    EXPECT_EQ(bb.bound(0), 100u);
    EXPECT_GE(bb.bound(0), values[3]);
    EXPECT_EQ(bb.staleness(0), n);
  }
  EXPECT_EQ(st.bound_rebuilds, 0u);
  values[3] -= 1;
  bb.note_change(3, values[3], /*may_lower=*/true, value_of, st);
  EXPECT_EQ(st.bound_rebuilds, 1u);
  EXPECT_EQ(bb.staleness(0), 0u);
  EXPECT_EQ(bb.bound(0), values[3]);  // exact again
}

TEST(BlockBounds, NoteChangeRaisesEagerly) {
  std::vector<std::uint64_t> values(4, 0);
  BlockBounds bb(4);
  bb.reset(4);
  PruneStats st;
  values[1] = 42;
  bb.note_change(1, 42, /*may_lower=*/false,
                 [&](Index i) { return values[i]; }, st);
  EXPECT_EQ(bb.bound(0), 42u);
  EXPECT_EQ(bb.staleness(0), 0u);  // insert-only epochs never age blocks
}

TEST(CandidatePool, EvictsWorstOnOverflow) {
  CandidatePool pool(3);
  pool.offer(1, {1, 10, 0});
  pool.offer(2, {2, 20, 0});
  pool.offer(3, {3, 30, 0});
  pool.offer(4, {4, 5, 0});  // worse than everything: rejected
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.entries().back().r.id, 1u);
  pool.offer(5, {5, 25, 0});  // beats the worst member: admits, evicts id 1
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.entries().front().r.id, 3u);
  EXPECT_EQ(pool.entries()[1].r.id, 5u);
  EXPECT_EQ(pool.entries().back().r.id, 2u);
}

TEST(CandidatePool, MemberValuesReplaceInPlaceEvenWhenLowered) {
  // The pool's exactness contract: a member's score change — including a
  // removal-driven drop — replaces its entry, so seeding reads the current
  // value and the seeded threshold can be trusted.
  CandidatePool pool(3);
  pool.offer(1, {1, 100, 0});
  pool.offer(2, {2, 90, 0});
  pool.offer(1, {1, 10, 0});  // demoted
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.entries().front().r.id, 2u);
  EXPECT_EQ(pool.entries().back().r, (Ranked{1, 10, 0}));
}

TEST(CandidatePool, SeedFillsTopKAndCountsHits) {
  CandidatePool pool(4);
  pool.offer(1, {1, 10, 0});
  pool.offer(2, {2, 40, 0});
  pool.offer(3, {3, 30, 0});
  TopK top(2);
  PruneStats st;
  pool.seed(top, st);
  EXPECT_EQ(top.answer(), "2|3");
  EXPECT_EQ(st.pool_hits, 3u);
}

TEST(PrunedBlocks, CounterInvariantAndByteIdentity) {
  // 64 entities in 8 blocks; the pruned walk with exact bounds must agree
  // with the full scan and satisfy scanned + skipped == total.
  std::vector<std::uint64_t> values(64, 0);
  std::vector<Ranked> all;
  std::uint64_t x = 12345;
  for (Index i = 0; i < 64; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    values[i] = (x >> 33) % 1000;
    all.push_back({i, values[i], static_cast<sm::Timestamp>(i % 7)});
  }
  BlockBounds bb(8);
  bb.reset(64);
  for (Index i = 0; i < 64; ++i) bb.raise(i, values[i]);
  TopK top(3);
  PruneStats st;
  queries::pruned_blocks(
      top, bb.num_blocks(), [&](Index b) { return bb.bound(b); },
      [&](Index b) {
        for (Index i = bb.block_lo(b); i < bb.block_hi(b); ++i) {
          top.offer_guarded(all[i]);
        }
      },
      st);
  EXPECT_EQ(top.answer(), queries::top_k_of(3, all).answer());
  EXPECT_EQ(st.blocks_total, 8u);
  EXPECT_EQ(st.blocks_scanned + st.blocks_skipped, st.blocks_total);
  EXPECT_GT(st.blocks_scanned, 0u);
}

TEST(PrunedBlocks, StaleHighBoundForcesScanNotWrongAnswer) {
  // After a removal demotes the block's best entity, the unrebuilt bound is
  // stale-high: the block is scanned unnecessarily (a perf matter), but the
  // answer still matches the full scan (a correctness invariant).
  std::vector<std::uint64_t> values(8, 1);
  values[0] = 100;  // block 0's champion...
  BlockBounds bb(4);
  bb.reset(8);
  for (Index i = 0; i < 8; ++i) bb.raise(i, values[i]);
  PruneStats st;
  values[0] = 0;  // ...is demoted; bound 100 goes stale-high
  bb.note_change(0, 0, /*may_lower=*/true,
                 [&](Index i) { return values[i]; }, st);
  EXPECT_EQ(bb.bound(0), 100u);
  TopK top(2);
  std::vector<Ranked> all;
  for (Index i = 0; i < 8; ++i) {
    all.push_back({i, values[i], 0});
  }
  queries::pruned_blocks(
      top, bb.num_blocks(), [&](Index b) { return bb.bound(b); },
      [&](Index b) {
        for (Index i = bb.block_lo(b); i < bb.block_hi(b); ++i) {
          top.offer_guarded(all[i]);
        }
      },
      st);
  EXPECT_EQ(top.answer(), queries::top_k_of(2, all).answer());
  EXPECT_EQ(st.blocks_scanned, 2u);  // the stale bound could not be skipped
}

TEST(PruneCountersGlobal, AccumulateAndReset) {
  // The prune.* counters are monotonic: adds accumulate, and a fresh
  // snapshot is the reset point — a delta from it reads zero until the
  // next add.
  using grbsm::telemetry::Registry;
  Registry& reg = Registry::instance();
  const auto base = reg.snapshot();
  PruneStats a;
  a.blocks_total = 4;
  a.blocks_skipped = 3;
  a.blocks_scanned = 1;
  a.pool_hits = 2;
  queries::add_prune_counters(a);
  queries::add_prune_counters(a);
  const auto mid = reg.snapshot();
  const PruneStats snap = queries::prune_stats_of(mid.delta_since(base));
  EXPECT_EQ(snap.blocks_total, 8u);
  EXPECT_EQ(snap.blocks_skipped, 6u);
  EXPECT_EQ(snap.pool_hits, 4u);
  EXPECT_EQ(queries::prune_stats_of(reg.snapshot().delta_since(mid)),
            PruneStats{});
}

// --- The maintainer (PrunedTopK) ---------------------------------------------

using grbsm::telemetry::Registry;
using grbsm::telemetry::RegistrySnapshot;
using queries::PrunedTopK;

/// A multi-space value table in the shape the engines hand the maintainer:
/// dense ids per space, external ids unique across spaces.
struct Spaces {
  std::vector<std::vector<std::uint64_t>> val;
  std::vector<std::vector<sm::Timestamp>> ts;

  [[nodiscard]] Ranked ranked(std::size_t s, Index i) const {
    return {s * 100000 + i, val[s][i], ts[s][i]};
  }
  [[nodiscard]] std::vector<Index> sizes() const {
    std::vector<Index> n;
    for (const auto& v : val) n.push_back(v.size());
    return n;
  }
  [[nodiscard]] auto scan() const {
    return [this](std::size_t s, Index lo, Index hi, auto&& emit) {
      for (Index i = lo; i < hi; ++i) emit(i, ranked(s, i));
    };
  }
  [[nodiscard]] auto value_of(std::size_t s) const {
    return [this, s](Index i) { return val[s][i]; };
  }
  [[nodiscard]] std::string full_scan() const {
    std::vector<Ranked> all;
    for (std::size_t s = 0; s < val.size(); ++s) {
      for (Index i = 0; i < val[s].size(); ++i) all.push_back(ranked(s, i));
    }
    return queries::top_k_of(3, all).answer();
  }
  /// Sets one value and folds it into the maintainer.
  void change(PrunedTopK& top, std::size_t s, Index i, std::uint64_t v,
              bool may_lower) {
    val[s][i] = v;
    top.note(s, i, ranked(s, i), may_lower, value_of(s));
  }
};

/// The prune.* registry activity since `before`.
queries::PruneStats prune_delta(const RegistrySnapshot& before) {
  return queries::prune_stats_of(
      Registry::instance().snapshot().delta_since(before));
}

/// Three spaces of uneven size (3, 2 and 4 blocks), small value range so
/// ties are everywhere.
Spaces random_spaces(std::uint64_t& x) {
  const auto next = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % mod;
  };
  Spaces sp;
  for (const Index n : {Index{600}, Index{300}, Index{900}}) {
    sp.val.emplace_back();
    sp.ts.emplace_back();
    for (Index i = 0; i < n; ++i) {
      sp.val.back().push_back(next(50));
      sp.ts.back().push_back(static_cast<sm::Timestamp>(next(20)));
    }
  }
  return sp;
}

TEST(PrunedTopK, MultiSpaceRerankMatchesFullScanOverRandomEpochs) {
  std::uint64_t x = 2024;
  const auto next = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % mod;
  };
  Spaces sp = random_spaces(x);
  PrunedTopK top(3);
  top.rebuild(sp.sizes(), sp.scan());
  ASSERT_EQ(top.answer(), sp.full_scan());
  for (int e = 0; e < 60; ++e) {
    const bool removals = e % 3 != 0;
    if (e % 5 == 0) {
      // Newborns land in every space at score 0; they rank by recency.
      for (std::size_t s = 0; s < sp.val.size(); ++s) {
        const Index n = sp.val[s].size();
        for (Index i = n; i < n + 7; ++i) {
          sp.val[s].push_back(0);
          sp.ts[s].push_back(static_cast<sm::Timestamp>(next(25)));
        }
        top.grow(s, sp.val[s].size());
        for (Index i = n; i < n + 7; ++i) {
          top.note_newborn(s, i, sp.ranked(s, i));
        }
      }
    }
    for (int k = 0; k < 40; ++k) {
      const std::size_t s = next(sp.val.size());
      const Index i = next(sp.val[s].size());
      const std::uint64_t v =
          removals ? next(50) : sp.val[s][i] + next(4);  // raise-only
      sp.change(top, s, i, v, removals);
    }
    top.finish(removals, sp.scan());
    ASSERT_EQ(top.answer(), sp.full_scan()) << "epoch " << e;
  }
}

TEST(PrunedTopK, TieAtThresholdInALaterSpaceIsScanned) {
  // Space 0 holds the leaders. Space 1's trap sits in its block 1 at index
  // 300, outside the space's 12-entry pool (twelve stronger entities fill
  // it), with the newest timestamp. The storm demotes space 1's pool to 0
  // and space 0's leaders to exactly the trap's score: the threshold then
  // ties the trap's block bound, so a score-only skip test would lose it.
  Spaces sp;
  sp.val.assign(2, {});
  sp.ts.assign(2, {});
  for (Index i = 0; i < 40; ++i) {
    sp.val[0].push_back(i < 3 ? 100 - i : 1);
    sp.ts[0].push_back(10);
  }
  for (Index i = 0; i < 340; ++i) {
    sp.val[1].push_back(i < queries::kPoolCapacity ? 80 : 1);
    sp.ts[1].push_back(10);
  }
  sp.val[1][300] = 20;
  sp.ts[1][300] = 99;
  PrunedTopK top(3);
  top.rebuild(sp.sizes(), sp.scan());
  ASSERT_EQ(top.answer(), sp.full_scan());
  for (Index i = 0; i < 3; ++i) sp.change(top, 0, i, 20, true);
  for (Index i = 0; i < queries::kPoolCapacity; ++i) {
    sp.change(top, 1, i, 0, true);
  }
  const RegistrySnapshot before = Registry::instance().snapshot();
  top.finish(/*removals=*/true, sp.scan());
  const std::string want = sp.full_scan();
  ASSERT_EQ(want.rfind("100300|", 0), 0u) << "fixture broken: " << want;
  EXPECT_EQ(top.answer(), want);
  // Space 1's block 0 (bound still 80, stale-high) and its block 1 (bound
  // 20, the tie) are both scanned; space 0's single block is too.
  EXPECT_EQ(prune_delta(before).blocks_scanned, 3u);
}

TEST(PrunedTopK, EachEpochAddsItsStatsToTheRegistryOnce) {
  std::uint64_t x = 7;
  const auto next = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % mod;
  };
  Spaces sp = random_spaces(x);
  PrunedTopK top(3);
  RegistrySnapshot before = Registry::instance().snapshot();
  top.rebuild(sp.sizes(), sp.scan());
  PruneStats d = prune_delta(before);
  EXPECT_EQ(d.pool_rebuilds, 3u);  // one full-walk pool build per space
  EXPECT_EQ(d.blocks_total, 0u);
  const std::uint64_t blocks = 3 + 2 + 4;
  for (int e = 0; e < 20; ++e) {
    const bool removals = e % 2 == 1;
    before = Registry::instance().snapshot();
    for (int k = 0; k < 10; ++k) {
      const std::size_t s = next(sp.val.size());
      const Index i = next(sp.val[s].size());
      sp.change(top, s, i, removals ? next(50) : sp.val[s][i] + 1, removals);
    }
    top.finish(removals, sp.scan());
    d = prune_delta(before);
    EXPECT_EQ(d.blocks_scanned + d.blocks_skipped, d.blocks_total);
    if (removals) {
      // One add per epoch: every block considered once, every pool seeded
      // once — a second add would double both, a missing one zero them.
      EXPECT_EQ(d.blocks_total, blocks) << "epoch " << e;
      EXPECT_EQ(d.pool_hits, 3 * queries::kPoolCapacity) << "epoch " << e;
    } else {
      EXPECT_EQ(d.blocks_total, 0u) << "epoch " << e;
      EXPECT_EQ(d.pool_hits, 0u) << "epoch " << e;
    }
    EXPECT_EQ(d.pool_rebuilds, 0u);
  }
}

}  // namespace
