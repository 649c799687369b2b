// MetricRegistry / instrument tests: handle identity, concurrent
// mutation, histogram bucketing, snapshot determinism, and reset.
//
// Value assertions are gated on HYPERION_METRICS: with instrumentation
// compiled out every mutation is a no-op and instruments read zero, but
// registration, snapshotting and reset must still work.

#include "obs/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace hyperion {
namespace obs {
namespace {

TEST(MetricRegistryTest, SameNameAndLabelsSameHandle) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("demo.count");
  Counter* b = reg.GetCounter("demo.count");
  EXPECT_EQ(a, b);
  Counter* labeled = reg.GetCounter("demo.count", {{"peer", "P1"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(labeled, reg.GetCounter("demo.count", {{"peer", "P1"}}));
}

TEST(MetricRegistryTest, CounterAndGaugeBasics) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Add();
  c->Add(41);
  Gauge* g = reg.GetGauge("g");
  g->Set(10);
  g->Add(-3);
#if HYPERION_METRICS
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(g->value(), 7);
#else
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
#endif
}

TEST(MetricRegistryTest, ConcurrentCounterIncrements) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("hot");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        // Concurrent registration of an already-known name must also be
        // safe and return the same handle.
        ASSERT_EQ(reg.GetCounter("hot"), c);
      }
    });
  }
  for (auto& w : workers) w.join();
#if HYPERION_METRICS
  EXPECT_EQ(c->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
#endif
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10, 100, 1000});
  for (int64_t v : {5, 10, 11, 100, 101, 5000}) h->Observe(v);
  std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
#if HYPERION_METRICS
  EXPECT_EQ(buckets[0], 2u);  // 5, 10 (bound is inclusive)
  EXPECT_EQ(buckets[1], 2u);  // 11, 100
  EXPECT_EQ(buckets[2], 1u);  // 101
  EXPECT_EQ(buckets[3], 1u);  // 5000 overflows
  EXPECT_EQ(h->count(), 6u);
  EXPECT_EQ(h->sum(), 5 + 10 + 11 + 100 + 101 + 5000);
#endif
}

TEST(HistogramTest, LogLinearBucketMatchesTheBoundsScan) {
  const std::vector<int64_t> bounds = LatencyBoundsUs();
  ASSERT_EQ(bounds.size(), 104u);
  EXPECT_EQ(bounds.front(), 1);
  EXPECT_EQ(bounds.back(), int64_t{1} << 27);
  auto scan = [&](int64_t v) {
    size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    return i;
  };
  for (int64_t v = -2; v <= (int64_t{1} << 16); ++v) {
    ASSERT_EQ(LogLinearBucket(v), scan(v)) << v;
  }
  for (int e = 16; e < 63; ++e) {
    const int64_t p = int64_t{1} << e;
    for (int64_t v : {p - 1, p, p + 1}) {
      ASSERT_EQ(LogLinearBucket(v), scan(v)) << v;
    }
  }
  // Every bucket is at most a quarter wider than its lower edge.
  for (size_t i = 4; i < bounds.size(); ++i) {
    EXPECT_LE(4 * (bounds[i] - bounds[i - 1]), bounds[i - 1]) << i;
  }
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10, 20, 40});
  for (int64_t v : {1, 2, 3, 4, 5, 6, 7, 8, 15, 100}) h->Observe(v);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, kMetricsEnabled ? 10u : 0u);
#if HYPERION_METRICS
  // Eight of ten observations fall in [0, 10]: p50 is 5/8 of the way up.
  EXPECT_EQ(hs.Quantile(0.5), 6);
  EXPECT_EQ(hs.Quantile(0.8), 10);
  EXPECT_EQ(hs.Quantile(0.9), 20);
  // The overflow bucket reads as the last bound.
  EXPECT_EQ(hs.Quantile(0.99), 40);
#endif
  EXPECT_EQ(HistogramSnapshot().Quantile(0.5), 0);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry reg;
  reg.GetCounter("z.last")->Add(1);
  reg.GetCounter("a.first")->Add(2);
  reg.GetCounter("a.first", {{"peer", "P2"}})->Add(3);
  reg.GetGauge("depth")->Set(5);
  reg.GetHistogram("lat", {1, 2})->Observe(1);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_TRUE(snap.counters[0].labels.empty());
  EXPECT_EQ(snap.counters[1].name, "a.first");
  EXPECT_EQ(snap.counters[1].labels.at("peer"), "P2");
  EXPECT_EQ(snap.counters[2].name, "z.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].bounds, (std::vector<int64_t>{1, 2}));
  ASSERT_EQ(snap.histograms[0].bucket_counts.size(), 3u);
#if HYPERION_METRICS
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].value, 3u);
  EXPECT_EQ(snap.counters[2].value, 1u);
  EXPECT_EQ(snap.gauges[0].value, 5);
  EXPECT_EQ(snap.histograms[0].count, 1u);
#endif
}

TEST(MetricRegistryTest, ResetZeroesButKeepsHandles) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  Histogram* h = reg.GetHistogram("h", {10});
  c->Add(7);
  g->Set(7);
  h->Observe(7);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0);
  for (uint64_t b : h->bucket_counts()) EXPECT_EQ(b, 0u);
  // Same handles, still usable.
  EXPECT_EQ(reg.GetCounter("c"), c);
  c->Add(1);
#if HYPERION_METRICS
  EXPECT_EQ(c->value(), 1u);
#endif
}

TEST(MetricRegistryTest, DefaultRegistryIsProcessWide) {
  EXPECT_EQ(&MetricRegistry::Default(), &MetricRegistry::Default());
}

TEST(MetricBoundsTest, BoundsAreStrictlyIncreasing) {
  for (const auto& bounds : {LatencyBoundsUs(), SizeBounds()}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace hyperion
