// kMetrics protocol tests plus the stats-tearing regression: the daemon's
// registry-backed stats must hold the prune-family invariant
// (scanned + skipped == total) on every response, even while the writer
// thread is mid-stream — one coherent registry snapshot per kMetrics frame,
// never a half-applied batch. The TSan lane re-runs this suite (poller
// thread racing the writer thread's counter batches).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "daemon/test_conn.hpp"
#include "datagen/generator.hpp"
#include "paper_example.hpp"
#include "queries/top_k.hpp"
#include "support/telemetry/metrics.hpp"

namespace grbd {
namespace {

namespace telemetry = grbsm::telemetry;

using test::Conn;
using test::small_config;

TEST(DaemonTelemetry, KMetricsCarriesTheDaemonValuesAtQuiescence) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);

  conn.apply(paper_example::update_change_set());
  server.drain();
  // One answered query so daemon.queries and epoch.answer_us move.
  EXPECT_EQ(conn.query(kQueryQ1, kLatestEpoch).type, MsgType::kAnswer);

  const telemetry::RegistrySnapshot reg = conn.metrics();

  EXPECT_EQ(reg.schema_version, telemetry::kMetricsSchemaVersion);
  // The service-level values under their dotted names, exact at quiescence:
  // one change set published (epochs 0 and 1 retained), one answer served,
  // nothing enqueued but unpublished.
  EXPECT_EQ(reg.value_or("daemon.latest_epoch", ~0ull), 1u);
  EXPECT_EQ(reg.value_or("daemon.applied", ~0ull), 1u);
  EXPECT_EQ(reg.value_or("daemon.queries", ~0ull), 1u);
  EXPECT_EQ(reg.value_or("daemon.retained", ~0ull), 2u);
  EXPECT_EQ(reg.value_or("daemon.in_flight", ~0ull), 0u);
  // The server runs in this process, so the frame carries exactly the
  // prune family the local registry holds.
  const queries::PruneStats wire = queries::prune_stats_of(reg);
  const queries::PruneStats local =
      queries::prune_stats_of(telemetry::Registry::instance().snapshot());
  EXPECT_EQ(wire, local);
  EXPECT_EQ(wire.blocks_scanned + wire.blocks_skipped, wire.blocks_total);
  EXPECT_GE(wire.pool_rebuilds, 1u);  // load() built the pools
  // The answer span timed itself into the registry (kMetricsOnly default).
  const telemetry::HistogramSnapshot* answer =
      reg.histogram("epoch.answer_us");
  ASSERT_NE(answer, nullptr);
  EXPECT_GE(answer->count(), 1u);
}

TEST(DaemonTelemetry, KMetricsRejectsTrailingBytes) {
  Server server(small_config());
  server.load(paper_example::initial_graph());
  Conn conn(server);
  const Frame f = conn.call(MsgType::kMetrics, {0xab});
  ASSERT_EQ(f.type, MsgType::kError);
  PayloadReader in(f.payload);
  EXPECT_EQ(static_cast<ErrorCode>(in.u32()), ErrorCode::kBadRequest);
}

TEST(DaemonTelemetry, StatsNeverTearUnderALiveWriteStream) {
  // The regression: the prune counters used to be independent globals read
  // one relaxed load at a time, so a stats frame racing the writer's update
  // could serve scanned + skipped != total. The writer's adds are registry
  // batches and each kMetrics is one seqlock-coherent snapshot — hammer it
  // during a removal-heavy write stream (removal epochs drive the pruned
  // re-rank path, so the family is hot) and require the invariant on every
  // poll.
  auto params = datagen::params_for_scale(1, 42);
  params.change_sets = 24;
  params.insert_elements = 400;
  params.frac_removals = 0.25;
  const datagen::Dataset ds = datagen::generate(params);

  Server server(small_config());
  server.load(ds.initial);
  Conn writer(server);
  Conn poller(server);
  const telemetry::RegistrySnapshot before = poller.metrics();

  std::atomic<bool> done{false};
  std::thread stream([&] {
    for (const sm::ChangeSet& cs : ds.changes) {
      EXPECT_GT(writer.apply(cs), 0u);
    }
    server.drain();
    done.store(true, std::memory_order_release);
  });

  std::uint64_t polls = 0;
  while (!done.load(std::memory_order_acquire)) {
    const queries::PruneStats p = queries::prune_stats_of(poller.metrics());
    EXPECT_EQ(p.blocks_scanned + p.blocks_skipped, p.blocks_total)
        << "kMetrics tore the prune family on poll " << polls;
    ++polls;
  }
  stream.join();

  const telemetry::RegistrySnapshot fin = poller.metrics();
  const queries::PruneStats streamed =
      queries::prune_stats_of(fin.delta_since(before));
  EXPECT_EQ(streamed.blocks_scanned + streamed.blocks_skipped,
            streamed.blocks_total);
  EXPECT_EQ(fin.value_or("daemon.latest_epoch", 0), ds.changes.size());
  EXPECT_GT(polls, 0u);
  // The stream must actually have exercised the family, or the invariant
  // checks above were vacuous.
  EXPECT_GT(streamed.blocks_total, 0u);
}

}  // namespace
}  // namespace grbd
