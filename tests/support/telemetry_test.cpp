// Telemetry subsystem tests: histogram bucket math and percentile accuracy
// against exact sorted references, snapshot merge/delta algebra, registry
// get-or-create + batch coherence under a concurrent writer, the kMetrics
// wire codec, trace-span nesting, cross-thread epoch correlation, ring
// wraparound and disabled-mode no-ops. The TSan lane re-runs every
// Telemetry* suite (concurrent recorders, seqlock snapshots, span rings).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "queries/top_k.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace grbsm::telemetry {
namespace {

// --- histogram ---------------------------------------------------------------

TEST(TelemetryHistogram, BucketBoundaries) {
  // Bucket 0 is exact zeros; bucket i (1..62) holds [2^(i-1), 2^i).
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  for (std::size_t i = 2; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_EQ(bucket_of(bucket_lo(i)), i) << "lower edge of bucket " << i;
    EXPECT_EQ(bucket_of(bucket_hi(i) - 1), i) << "upper edge of bucket " << i;
    EXPECT_EQ(bucket_of(bucket_hi(i)), i + 1) << "first value past " << i;
  }
  // Everything with the top bit set folds into the overflow tail.
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 63), kHistogramBuckets - 1);
}

TEST(TelemetryHistogram, RecordCountSumMax) {
  Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 5ull, 5ull, 1000ull}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.sum, 1011u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1011.0 / 5.0);
  EXPECT_EQ(s.buckets[bucket_of(0)], 1u);
  EXPECT_EQ(s.buckets[bucket_of(5)], 2u);
}

TEST(TelemetryHistogram, MergeIsAssociativeAndCommutative) {
  grbsm::support::Xoshiro256 rng(7);
  Histogram ha;
  Histogram hb;
  Histogram hc;
  for (int i = 0; i < 500; ++i) {
    ha.record(rng.bounded(1u << 20));
    hb.record(rng.bounded(1u << 10));
    hc.record(rng.bounded(1u << 30));
  }
  const HistogramSnapshot a = ha.snapshot();
  const HistogramSnapshot b = hb.snapshot();
  const HistogramSnapshot c = hc.snapshot();
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b + c).count(), 1500u);
  EXPECT_EQ((a + b + c).sum, a.sum + b.sum + c.sum);
}

TEST(TelemetryHistogram, PercentilesTrackExactReferenceWithinOneBucket) {
  // Power-of-two buckets bracket the true quantile: the estimate must land
  // inside the bucket containing the exact order statistic.
  grbsm::support::Xoshiro256 rng(42);
  for (const std::uint64_t spread : {1u << 8, 1u << 16, 1u << 24}) {
    Histogram h;
    std::vector<std::uint64_t> exact;
    for (int i = 0; i < 20000; ++i) {
      // Heavy-tailed mix: mostly small values, occasional large ones, like
      // the latency streams the histogram exists for.
      const std::uint64_t v = rng.chance(0.95) ? rng.bounded(spread / 16 + 1)
                                               : rng.bounded(spread);
      h.record(v + 1);  // keep values >= 1 so ratios are well-defined
      exact.push_back(v + 1);
    }
    std::sort(exact.begin(), exact.end());
    const HistogramSnapshot s = h.snapshot();
    for (const double q : {0.50, 0.90, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(exact.size() - 1));
      const std::uint64_t truth = exact[rank];
      const double est = s.quantile(q);
      EXPECT_GE(est, static_cast<double>(bucket_lo(bucket_of(truth))))
          << "q=" << q << " spread=" << spread;
      EXPECT_LE(est, static_cast<double>(bucket_hi(bucket_of(truth))))
          << "q=" << q << " spread=" << spread;
    }
    // The extreme quantile is capped by the recorded max, not the bucket's
    // theoretical upper edge.
    EXPECT_LE(s.quantile(1.0), static_cast<double>(s.max));
  }
}

TEST(TelemetryHistogram, EmptyAndSingleValueQuantiles) {
  Histogram h;
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_EQ(h.snapshot().count(), 0u);
  h.record(77);
  const HistogramSnapshot s = h.snapshot();
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(s.quantile(q), static_cast<double>(bucket_lo(bucket_of(77))));
    EXPECT_LE(s.quantile(q), 77.0);  // capped by max
  }
}

TEST(TelemetryHistogram, DeltaSinceRecoversTheInterval) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(1000);
  const HistogramSnapshot after = h.snapshot();
  const HistogramSnapshot d = after.delta_since(before);
  EXPECT_EQ(d.count(), 50u);
  EXPECT_EQ(d.sum, 50u * 1000u);
  EXPECT_EQ(d.buckets[bucket_of(1000)], 50u);
  EXPECT_EQ(d.buckets[bucket_of(10)], 0u);
  // Saturating: a pair polled out of order must not underflow.
  const HistogramSnapshot inverted = before.delta_since(after);
  EXPECT_EQ(inverted.count(), 0u);
  EXPECT_EQ(inverted.sum, 0u);
}

TEST(TelemetryRegistry, SnapshotDeltaSinceIsTheInterval) {
  auto& reg = Registry::instance();
  Counter& c = reg.counter("test.delta.counter");
  Gauge& g = reg.gauge("test.delta.gauge");
  Histogram& h = reg.histogram("test.delta.hist");
  c.add(5);
  g.set(7);
  h.record(10);
  const RegistrySnapshot before = reg.snapshot();
  c.add(3);
  g.set(2);
  h.record(1000);
  const RegistrySnapshot d = reg.snapshot().delta_since(before);
  EXPECT_EQ(d.value_or("test.delta.counter", 99), 3u);
  EXPECT_EQ(d.value_or("test.delta.gauge", 99), 2u);  // a level, not a delta
  ASSERT_NE(d.histogram("test.delta.hist"), nullptr);
  EXPECT_EQ(d.histogram("test.delta.hist")->count(), 1u);
  // Saturating: the reverse interval must not underflow.
  EXPECT_EQ(before.delta_since(reg.snapshot()).value_or("test.delta.counter",
                                                        99),
            0u);
}

TEST(TelemetryHistogram, ConcurrentRelaxedRecording) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      grbsm::support::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) h.record(rng.bounded(1u << 16));
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t from_buckets = 0;
  for (const std::uint64_t b : s.buckets) from_buckets += b;
  EXPECT_EQ(from_buckets, s.count());
  EXPECT_LT(s.max, 1u << 16);
}

// --- registry ----------------------------------------------------------------

TEST(TelemetryRegistry, GetOrCreateReturnsStableReferences) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.registry.stable");
  Counter& b = reg.counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Same name, different kind: refused loudly.
  EXPECT_THROW(reg.gauge("test.registry.stable"), std::logic_error);
  EXPECT_THROW(reg.histogram("test.registry.stable"), std::logic_error);
}

TEST(TelemetryRegistry, SnapshotIsSortedAndTyped) {
  Registry& reg = Registry::instance();
  reg.counter("test.snap.zz_counter").add(5);
  reg.gauge("test.snap.aa_gauge").set(9);
  reg.histogram("test.snap.mm_hist").record(123);
  const RegistrySnapshot s = reg.snapshot();
  EXPECT_TRUE(std::is_sorted(
      s.entries.begin(), s.entries.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
  EXPECT_EQ(s.value_or("test.snap.zz_counter", 0), 5u);
  EXPECT_EQ(s.value_or("test.snap.aa_gauge", 0), 9u);
  EXPECT_EQ(s.value_or("test.snap.absent", 42), 42u);
  const HistogramSnapshot* h = s.histogram("test.snap.mm_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(s.histogram("test.snap.zz_counter"), nullptr);
  const MetricValue* mv = s.find("test.snap.aa_gauge");
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->kind, MetricKind::kGauge);
}

TEST(TelemetryRegistry, BatchedWritesNeverTearInSnapshots) {
  // The stats-tearing regression at the registry level: a writer updates a
  // two-counter family under BatchScope; every snapshot must observe the
  // family's invariant (a == b) no matter when it lands.
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.batch.a");
  Counter& b = reg.counter("test.batch.b");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Registry::BatchScope batch;
      a.add(1);
      b.add(1);
    }
  });
  const std::uint64_t base_a = 0;
  for (int i = 0; i < 2000; ++i) {
    const RegistrySnapshot s = reg.snapshot();
    EXPECT_EQ(s.value_or("test.batch.a", base_a),
              s.value_or("test.batch.b", base_a))
        << "snapshot " << i << " tore a batched counter family";
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(TelemetryRegistry, SerializeParseRoundtrip) {
  Registry& reg = Registry::instance();
  reg.counter("test.wire.counter").add(0xdeadbeef);
  reg.gauge("test.wire.gauge").set(17);
  Histogram& h = reg.histogram("test.wire.hist");
  grbsm::support::Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) h.record(rng.bounded(1u << 22));
  const RegistrySnapshot s = reg.snapshot();
  const std::vector<std::uint8_t> blob = serialize(s);
  const RegistrySnapshot parsed = parse_snapshot(blob.data(), blob.size());
  EXPECT_EQ(parsed.schema_version, kMetricsSchemaVersion);
  ASSERT_EQ(parsed.entries.size(), s.entries.size());
  for (std::size_t i = 0; i < s.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].first, s.entries[i].first);
    EXPECT_EQ(parsed.entries[i].second.kind, s.entries[i].second.kind);
    EXPECT_EQ(parsed.entries[i].second.value, s.entries[i].second.value);
    EXPECT_EQ(parsed.entries[i].second.hist, s.entries[i].second.hist);
  }
}

TEST(TelemetryRegistry, ParseRejectsMalformedPayloads) {
  Registry& reg = Registry::instance();
  reg.counter("test.wire.reject").add(1);
  const std::vector<std::uint8_t> blob = serialize(reg.snapshot());
  // Truncations at every prefix must throw, never read out of bounds.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                std::size_t{7}, blob.size() - 1}) {
    EXPECT_THROW((void)parse_snapshot(blob.data(), cut), std::runtime_error)
        << "cut=" << cut;
  }
  std::vector<std::uint8_t> bad_kind = blob;
  bad_kind[8] = 0x7f;  // first entry's kind byte
  EXPECT_THROW((void)parse_snapshot(bad_kind.data(), bad_kind.size()),
               std::runtime_error);
}

TEST(TelemetryRegistry, ProvidersContributeAndDetach) {
  Registry& reg = Registry::instance();
  const std::uint64_t id = reg.add_provider([](auto& entries) {
    MetricValue mv;
    mv.kind = MetricKind::kGauge;
    mv.value = 1234;
    entries.emplace_back("test.provider.level", mv);
  });
  EXPECT_EQ(reg.snapshot().value_or("test.provider.level", 0), 1234u);
  reg.remove_provider(id);
  EXPECT_EQ(reg.snapshot().value_or("test.provider.level", 0), 0u);
}

TEST(TelemetryRegistry, PruneCountersRoundTripThroughRegistry) {
  // The prune family's contract: add_prune_counters accumulates under the
  // prune.* names, and a snapshot delta recovers exactly the interval's
  // adds — the counters are monotonic, so the delta is the one way to read.
  Registry& reg = Registry::instance();
  const RegistrySnapshot before = reg.snapshot();
  const queries::PruneStats d{10, 6, 4, 2, 1, 3};
  queries::add_prune_counters(d);
  queries::add_prune_counters(d);
  const RegistrySnapshot after = reg.snapshot();
  const RegistrySnapshot delta = after.delta_since(before);
  EXPECT_EQ(queries::prune_stats_of(delta),
            (queries::PruneStats{20, 12, 8, 4, 2, 6}));
  // The same values are visible under their registry names.
  EXPECT_EQ(delta.value_or("prune.blocks_total", 0), 20u);
  EXPECT_EQ(delta.value_or("prune.bound_rebuilds", 0), 6u);
  // An interval with no adds reads as zero.
  EXPECT_EQ(queries::prune_stats_of(reg.snapshot().delta_since(after)),
            queries::PruneStats{});
}

// --- tracing -----------------------------------------------------------------

/// Saves/restores the mode and clears the rings so trace tests compose in
/// one process (the tracer is a process-global singleton).
class TelemetryTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    prior_ = mode();
    Tracer::instance().clear();
  }
  void TearDown() override {
    set_mode(prior_);
    Tracer::instance().clear();
  }

 private:
  TelemetryMode prior_ = TelemetryMode::kMetricsOnly;
};

std::vector<CompletedSpan> spans_named(const std::vector<CompletedSpan>& all,
                                       const std::string& name) {
  std::vector<CompletedSpan> out;
  for (const CompletedSpan& s : all) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TEST_F(TelemetryTrace, OffModeRecordsNothing) {
  set_mode(TelemetryMode::kOff);
  {
    GRB_TRACE_SPAN("off_mode", 1);
    SpanScope manual("off_manual", 2, nullptr);
  }
  EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(TelemetryTrace, MetricsOnlyTimesButDoesNotTrace) {
  set_mode(TelemetryMode::kMetricsOnly);
  Histogram h;
  { SpanScope span("metrics_only", 3, &h); }
  EXPECT_EQ(h.snapshot().count(), 1u);  // duration recorded...
  EXPECT_TRUE(Tracer::instance().collect().empty());  // ...but no events
}

TEST_F(TelemetryTrace, NestedSpansCompleteInnerFirst) {
  set_mode(TelemetryMode::kTracing);
  Histogram houter;
  Histogram hinner;
  {
    SpanScope outer("outer", 1, &houter);
    SpanScope inner("inner", 1, &hinner);
  }
  const std::vector<CompletedSpan> all = Tracer::instance().collect();
  ASSERT_EQ(all.size(), 2u);
  // Per-thread spans come back in completion order: inner closes first.
  EXPECT_EQ(all[0].name, "inner");
  EXPECT_EQ(all[1].name, "outer");
  EXPECT_GE(all[0].start_ns, all[1].start_ns);
  EXPECT_LE(all[0].end_ns, all[1].end_ns);
  EXPECT_EQ(houter.snapshot().count(), 1u);
  EXPECT_EQ(hinner.snapshot().count(), 1u);
}

TEST_F(TelemetryTrace, SetEpochRelabelsTheSpan) {
  set_mode(TelemetryMode::kTracing);
  {
    SpanScope span("relabel", 0, nullptr);
    span.set_epoch(41);
    span.set_epoch(42);  // last write wins
  }
  const std::vector<CompletedSpan> all = Tracer::instance().collect();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].epoch, 42u);
}

TEST_F(TelemetryTrace, CrossThreadSpansCorrelateByEpoch) {
  set_mode(TelemetryMode::kTracing);
  constexpr std::uint64_t kEpoch = 9;
  const char* const stages[] = {"stage_route", "stage_apply", "stage_merge"};
  std::vector<std::thread> threads;
  for (const char* stage : stages) {
    threads.emplace_back([stage] {
      SpanScope span(stage, kEpoch, nullptr);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<CompletedSpan> all = Tracer::instance().collect();
  std::vector<std::uint32_t> tids;
  for (const char* stage : stages) {
    const auto matches = spans_named(all, stage);
    ASSERT_EQ(matches.size(), 1u) << stage;
    EXPECT_EQ(matches[0].epoch, kEpoch);
    tids.push_back(matches[0].tid);
  }
  // Three threads, three distinct ring tids, one shared epoch id — exactly
  // the correlation the Chrome-trace checker keys on.
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(TelemetryTrace, RingWraparoundKeepsLatestBalancedSpans) {
  set_mode(TelemetryMode::kTracing);
  Tracer& tracer = Tracer::instance();
  tracer.set_ring_capacity(8);  // 4 spans; applies to new threads' rings
  constexpr int kSpans = 50;
  std::thread worker([] {
    for (int i = 0; i < kSpans; ++i) {
      SpanScope span("wrap", static_cast<std::uint64_t>(i), nullptr);
    }
  });
  worker.join();
  tracer.set_ring_capacity(std::size_t{1} << 16);  // restore the default
  const std::vector<CompletedSpan> wraps =
      spans_named(tracer.collect(), "wrap");
  ASSERT_EQ(wraps.size(), 4u);  // ring holds the last 4 complete spans
  for (std::size_t i = 0; i < wraps.size(); ++i) {
    EXPECT_EQ(wraps[i].epoch,
              static_cast<std::uint64_t>(kSpans - 4 + static_cast<int>(i)));
    EXPECT_LE(wraps[i].start_ns, wraps[i].end_ns);
  }
}

TEST_F(TelemetryTrace, ChromeExportIsBalancedAndTagged) {
  set_mode(TelemetryMode::kTracing);
  {
    SpanScope outer("export_outer", 5, nullptr);
    SpanScope inner("export_inner", 5, nullptr);
  }
  std::ostringstream os;
  Tracer::instance().export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_EQ(count("\"name\":\"export_inner\""), 2u);  // one B, one E
  EXPECT_EQ(count("\"args\":{\"epoch\":5}"), 4u);
  EXPECT_EQ(count("\"ph\":\"M\""), 1u);  // the process_name metadata record
}

}  // namespace
}  // namespace grbsm::telemetry
