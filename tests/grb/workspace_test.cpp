// Unit tests for the Context-owned workspace arena: lease/donate round
// trips, size-bucketed reuse, growth, thread-team leases, capacity-reuse
// storage release/adopt on Matrix/Vector, and the stats counters the CI
// perf gate reads (through the registry's arena.* entries).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "grb/context.hpp"
#include "grb/detail/workspace.hpp"
#include "grb/grb.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

using grb::Index;
using grb::detail::Workspace;
using grbsm::telemetry::Registry;
using grbsm::telemetry::RegistrySnapshot;

/// The Context arena's activity since `before`, read through the registry.
grb::WorkspaceStats arena_since(const RegistrySnapshot& before) {
  return grb::arena_stats_of(
      Registry::instance().snapshot().delta_since(before));
}

TEST(Workspace, LeaseProvidesClearedCapacityAndCountsMiss) {
  Workspace ws;
  auto lease = ws.lease<double>(100);
  EXPECT_EQ(lease->size(), 0u);
  EXPECT_GE(lease->capacity(), 100u);
  lease->assign(100, 1.5);
  const auto s = ws.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.leases(), 1u);
  EXPECT_EQ(s.bytes_leased, 100u * sizeof(double));
}

TEST(Workspace, ReleasedBufferIsReusedCleared) {
  Workspace ws;
  const double* data = nullptr;
  {
    auto lease = ws.lease<double>(100);
    lease->assign(100, 42.0);
    data = lease->data();
  }
  EXPECT_EQ(ws.stats().donations, 1u);
  EXPECT_EQ(ws.stats().buffers_cached, 1u);
  auto again = ws.lease<double>(80);
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().buffers_cached, 0u);
  // Same storage, arriving cleared.
  EXPECT_EQ(again->data(), data);
  EXPECT_EQ(again->size(), 0u);
  EXPECT_GE(again->capacity(), 80u);
}

TEST(Workspace, GrownBufferReturnsAtItsNewCapacity) {
  Workspace ws;
  {
    auto lease = ws.lease<int>(10);
    for (int i = 0; i < 10000; ++i) lease->push_back(i);  // grows past hint
  }
  // The grown buffer serves a much larger request without a new allocation.
  auto big = ws.lease<int>(5000);
  EXPECT_GE(big->capacity(), 5000u);
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().misses, 1u);  // only the original lease
}

TEST(Workspace, SmallRequestFallsBackToAModeratelyLargerBuffer) {
  // Buffers migrate upward through growth; a small request reuses a larger
  // cached buffer as long as it sits under the oversize watermark (2^6×
  // the rounded-up request).
  Workspace ws;
  { auto lease = ws.lease<int>(1 << 10); }
  auto small = ws.lease<int>(64);  // class 6; cached class 10 is within 6
  EXPECT_GE(small->capacity(), 1u << 10);
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().misses, 1u);
  EXPECT_EQ(ws.stats().splits, 0u);
}

TEST(Workspace, HighWatermarkKeepsHugeBuffersWholeAndCountsSplit) {
  // A tiny request must NOT consume a vastly larger cached buffer: the big
  // buffer stays whole for the big requests it fits, and the request takes
  // a right-sized allocation instead — counted as both a split and a miss,
  // so zero-miss gates stay honest.
  Workspace ws;
  { auto lease = ws.lease<int>(1 << 16); }
  EXPECT_EQ(ws.stats().buffers_cached, 1u);
  {
    auto tiny = ws.lease<int>(8);
    EXPECT_LT(tiny->capacity(), 1u << 16);  // not the cached giant
    EXPECT_GE(tiny->capacity(), 8u);
  }
  const auto s = ws.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);   // the original fill + the refused tiny lease
  EXPECT_EQ(s.splits, 1u);
  EXPECT_EQ(s.buffers_cached, 2u);  // giant untouched + tiny donated back
  // The split-allocated buffer now populates the small class: the same
  // request hits on the next cycle (the "returned tail", one cycle later).
  auto again = ws.lease<int>(8);
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().splits, 1u);
}

TEST(Workspace, DetachShrinksOversizedPoolBuffer) {
  // A pool-origin buffer detached with contents far below its capacity is
  // trimmed on the way out: the caller gets a right-sized copy and the big
  // buffer returns to the pool instead of staying pinned in a small
  // long-lived container.
  Workspace ws;
  std::vector<int> out;
  {
    auto lease = ws.lease<int>(1 << 16);
    for (int i = 0; i < 10; ++i) lease->push_back(i);
    out = lease.detach();
  }
  EXPECT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_LT(out.capacity(), 1u << 16);
  const auto s = ws.stats();
  EXPECT_EQ(s.shrinks, 1u);
  EXPECT_EQ(s.buffers_cached, 1u);  // the big buffer, donated back
  EXPECT_GE(s.bytes_cached, (std::size_t{1} << 16) * sizeof(int));
  // The reclaimed giant serves the next big request from cache.
  auto big = ws.lease<int>(1 << 16);
  EXPECT_EQ(ws.stats().hits, 1u);
}

TEST(Workspace, DetachKeepsCloseFitBuffersUntrimmed) {
  Workspace ws;
  std::vector<int> out;
  {
    auto lease = ws.lease<int>(1000);
    lease->assign(1000, 3);
    out = lease.detach();
  }
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_EQ(ws.stats().shrinks, 0u);
  EXPECT_EQ(ws.stats().buffers_cached, 0u);  // nothing donated
}

TEST(Workspace, DomainCountersAttributePerShardLeases) {
  Workspace ws;
  {
    grb::detail::ScopedStatsDomain domain(3);
    { auto lease = ws.lease<double>(256); }  // miss, attributed to domain 3
    { auto lease = ws.lease<double>(256); }  // hit, attributed to domain 3
  }
  { auto lease = ws.lease<double>(256); }  // unattributed
  const auto d3 = ws.domain_stats(3);
  EXPECT_EQ(d3.misses, 1u);
  EXPECT_EQ(d3.hits, 1u);
  EXPECT_EQ(d3.leases(), 2u);
  EXPECT_EQ(d3.bytes_leased, 2u * 256u * sizeof(double));
  EXPECT_EQ(ws.domain_stats(0).leases(), 0u);
  // Global counters cover all three leases.
  EXPECT_EQ(ws.stats().leases(), 3u);
  EXPECT_DOUBLE_EQ(ws.domain_stats(7).hit_rate(), 1.0);  // idle domain
  // Domain counters are monotonic: an interval is a before/after diff.
  const auto before = ws.domain_stats(3);
  {
    grb::detail::ScopedStatsDomain domain(3);
    auto lease = ws.lease<double>(256);  // hit, attributed to domain 3
  }
  const auto after = ws.domain_stats(3);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST(Workspace, TeamLeaseAndTeamResize) {
  Workspace ws;
  {
    auto team = ws.lease_team<double>(4, 256);
    ASSERT_EQ(team.size(), 4u);
    for (std::size_t t = 0; t < team.size(); ++t) {
      team.buf(t).resize(256);
      team.buf(t)[0] = static_cast<double>(t);
    }
  }
  EXPECT_EQ(ws.stats().misses, 4u);
  EXPECT_EQ(ws.stats().donations, 4u);
  {
    // Thread-team resize: a larger team reuses the old team's buffers and
    // tops up the difference.
    auto team = ws.lease_team<double>(8, 256);
    ASSERT_EQ(team.size(), 8u);
  }
  EXPECT_EQ(ws.stats().hits, 4u);
  EXPECT_EQ(ws.stats().misses, 8u);
  {
    auto team = ws.lease_team<double>(8, 256);
  }
  EXPECT_EQ(ws.stats().hits, 12u);
  EXPECT_EQ(ws.stats().misses, 8u);
}

TEST(Workspace, DetachSeversThePoolLink) {
  Workspace ws;
  std::vector<Index> out;
  {
    auto lease = ws.lease<Index>(128);
    lease->assign(128, Index{7});
    out = lease.detach();
  }
  EXPECT_EQ(ws.stats().donations, 0u);  // nothing returned on destruction
  EXPECT_EQ(out.size(), 128u);
  // An explicit donate puts the detached buffer back.
  ws.donate(std::move(out));
  EXPECT_EQ(ws.stats().donations, 1u);
  EXPECT_EQ(ws.lease<Index>(100)->capacity(), 128u);
}

TEST(Workspace, TinyDonationsAreDropped) {
  Workspace ws;
  std::vector<int> tiny;
  tiny.reserve(4);
  ws.donate(std::move(tiny));
  EXPECT_EQ(ws.stats().donations, 0u);
  EXPECT_EQ(ws.stats().drops, 1u);
  EXPECT_EQ(ws.stats().buffers_cached, 0u);
  // Empty vectors (no storage) are ignored entirely.
  ws.donate(std::vector<int>{});
  EXPECT_EQ(ws.stats().drops, 1u);
}

TEST(Workspace, StatsCountersAreMonotonicGaugesTrackThePool) {
  Workspace ws;
  { auto lease = ws.lease<double>(1000); }
  const auto before = ws.stats();
  EXPECT_EQ(before.misses, 1u);
  EXPECT_EQ(before.buffers_cached, 1u);
  { auto lease = ws.lease<double>(1000); }  // served from the pool
  const auto after = ws.stats();
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.donations - before.donations, 1u);
  EXPECT_EQ(after.bytes_leased - before.bytes_leased, 1000u * sizeof(double));
  EXPECT_EQ(after.buffers_cached, 1u);  // gauge: the pool right now
  EXPECT_EQ(after.bytes_cached, before.bytes_cached);
}

TEST(Workspace, TrimFreesEverythingCached) {
  Workspace ws;
  { auto lease = ws.lease<double>(4096); }
  { auto lease = ws.lease<Index>(4096); }
  EXPECT_EQ(ws.stats().buffers_cached, 2u);
  const std::size_t freed = ws.trim();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(ws.stats().buffers_cached, 0u);
  EXPECT_EQ(ws.stats().bytes_cached, 0u);
  // The next lease allocates fresh again.
  { auto lease = ws.lease<double>(4096); }
  EXPECT_EQ(ws.stats().misses, 3u);
}

TEST(Workspace, ContextOwnsAProcessWideArena) {
  auto& ws = grb::Context::instance().workspace();
  EXPECT_EQ(&ws, &grb::detail::workspace());
  const RegistrySnapshot before = Registry::instance().snapshot();
  { auto lease = ws.lease<std::uint32_t>(512); }
  EXPECT_EQ(arena_since(before).leases(), 1u);
}

TEST(Workspace, ArenaStatsOfReadsBackEveryPublishedField) {
  // The provider writes the arena.* entries and arena_stats_of reads them
  // from one name table: at quiescence every field must round-trip, the
  // global ones and a stats domain's share alike.
  auto& ws = grb::Context::instance().workspace();
  const RegistrySnapshot before = Registry::instance().snapshot();
  {
    grb::detail::ScopedStatsDomain domain(5);
    { auto lease = ws.lease<double>(300); }
    { auto lease = ws.lease<double>(300); }
  }
  const RegistrySnapshot now = Registry::instance().snapshot();
  EXPECT_EQ(grb::arena_stats_of(now), ws.stats());
  EXPECT_EQ(grb::arena_stats_of(now, 5), ws.domain_stats(5));
  // The wire names the benchmark reads stay put.
  EXPECT_EQ(now.value_or("arena.misses", ~0ull), ws.stats().misses);
  EXPECT_EQ(now.value_or("arena.shard5.hits", 0), ws.domain_stats(5).hits);
  const grb::WorkspaceStats d5 =
      grb::arena_stats_of(now.delta_since(before), 5);
  EXPECT_EQ(d5.leases(), 2u);
  EXPECT_EQ(d5.bytes_leased, 2u * 300u * sizeof(double));
  // A domain that never leased is absent from the snapshot: all zeros.
  EXPECT_EQ(grb::arena_stats_of(now, 6), grb::WorkspaceStats{});
}

TEST(StorageReuse, MatrixReleaseAdoptRoundtrip) {
  auto m = grb::Matrix<double>::build(
      3, 4, {{0, 1, 1.5}, {1, 0, -2.0}, {2, 3, 7.0}});
  const auto original = m;
  auto st = m.release_storage();
  EXPECT_EQ(m.nrows(), 0u);
  EXPECT_EQ(m.ncols(), 0u);
  EXPECT_EQ(m.nvals(), 0u);
  const auto back = grb::Matrix<double>::adopt_storage(
      3, 4, std::move(st), grb::CsrCheck::kAlways);
  EXPECT_EQ(back, original);
}

TEST(StorageReuse, VectorReleaseAdoptRoundtrip) {
  auto v = grb::Vector<double>::build(10, {1, 4, 7}, {0.5, 1.5, 2.5});
  const auto original = v;
  auto st = v.release_storage();
  EXPECT_EQ(v.size(), 10u);  // logical size kept
  EXPECT_EQ(v.nvals(), 0u);
  const auto back = grb::Vector<double>::adopt_storage(
      10, std::move(st), grb::CsrCheck::kAlways);
  EXPECT_EQ(back, original);
}

TEST(StorageReuse, MatrixRowGrowthIsNotDefeatedByShrinkOnDetach) {
  // Matrix::resize regrows rowptr through a pool lease sized to the new row
  // count; the lease must leave the arena untrimmed (it is about to be
  // resized up to exactly that capacity), or the regrowth falls back to a
  // plain realloc outside the pool.
  auto m = grb::Matrix<double>::build(64, 4, {{0, 1, 1.5}, {63, 2, 2.5}});
  const RegistrySnapshot before = Registry::instance().snapshot();
  m.resize(100000, 4);  // rows grow by >= 2^6x: the shrink rule would bite
  EXPECT_EQ(arena_since(before).shrinks, 0u);
  EXPECT_EQ(m.nrows(), 100000u);
  EXPECT_EQ(m.nvals(), 2u);
}

TEST(StorageReuse, RecycleDonatesToTheContextArena) {
  // A kernel-sized container's storage must land back in the pool.
  const RegistrySnapshot before = Registry::instance().snapshot();
  auto v = grb::Vector<Index>::dense(1000, [](Index i) { return i; });
  grb::recycle(std::move(v));
  EXPECT_GE(arena_since(before).donations, 2u);  // ind + val arrays
}

}  // namespace
