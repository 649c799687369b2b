#include "obs/metrics.h"

#include <cassert>
#include <cmath>

namespace hyperion {
namespace obs {

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      log_linear_(bounds_ == LatencyBoundsUs()),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    assert(bounds_[i] < bounds_[i + 1] && "bounds must increase");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<int64_t> LatencyBoundsUs() {
  static const std::vector<int64_t> bounds = [] {
    std::vector<int64_t> b = {1, 2, 3, 4};
    for (int e = 2; e <= 26; ++e) {
      for (int64_t sub = 1; sub <= 4; ++sub) {
        b.push_back((int64_t{1} << e) + sub * (int64_t{1} << (e - 2)));
      }
    }
    return b;
  }();
  return bounds;
}

int64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0;
  const double rank = q * static_cast<double>(count);
  uint64_t below = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t in_bucket = bucket_counts[i];
    if (in_bucket == 0 || static_cast<double>(below + in_bucket) < rank) {
      below += in_bucket;
      continue;
    }
    if (i == bounds.size()) return bounds.back();  // overflow
    const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double upper = static_cast<double>(bounds[i]);
    const double within =
        (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
    return std::llround(lower + (upper - lower) * within);
  }
  return bounds.back();
}

std::vector<int64_t> SizeBounds() {
  return {1, 4, 16, 64, 256, 1'024, 4'096, 16'384, 65'536};
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    LabelSet labels) {
  MutexLock lock(mu_);
  auto& slot = counters_[{name, std::move(labels)}];
  if (!slot) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name, LabelSet labels) {
  MutexLock lock(mu_);
  auto& slot = gauges_[{name, std::move(labels)}];
  if (!slot) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<int64_t> bounds,
                                        LabelSet labels) {
  MutexLock lock(mu_);
  auto& slot = histograms_[{name, std::move(labels)}];
  if (!slot) slot.reset(new Histogram(std::move(bounds)));
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    snap.counters.push_back({key.first, key.second, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, g] : gauges_) {
    snap.gauges.push_back({key.first, key.second, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = key.first;
    hs.labels = key.second;
    hs.bounds = h->bounds();
    hs.bucket_counts = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [key, c] : counters_) {
    (void)key;
    c->Reset();
  }
  for (auto& [key, g] : gauges_) {
    (void)key;
    g->Reset();
  }
  for (auto& [key, h] : histograms_) {
    (void)key;
    h->Reset();
  }
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace hyperion
