// MetricRegistry: named, labeled counters, gauges and fixed-bucket
// histograms backing the observability subsystem (paper §7 measures the
// distributed cover protocol; everything those experiments report —
// traffic, streaming cadence, cache flushes — is recorded here).
//
// Design constraints:
//  * Thread-safe mutation.  Instruments mutate via relaxed atomics so
//    the query service's workers and the tcp loop threads never
//    contend; the registry mutex guards only registration and
//    snapshotting.
//  * Stable handles.  Get*() returns a pointer that stays valid for the
//    registry's lifetime, so hot paths register once and mutate freely.
//  * Compile-out-able.  Building with -DHYPERION_METRICS=0 turns every
//    mutation into a constant-false branch the optimizer removes; the
//    registry itself keeps working (snapshots report zeros) so callers
//    need no #ifdefs.

#ifndef HYPERION_OBS_METRICS_H_
#define HYPERION_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/synchronization.h"

#ifndef HYPERION_METRICS
#define HYPERION_METRICS 1
#endif

namespace hyperion {
namespace obs {

inline constexpr bool kMetricsEnabled = HYPERION_METRICS != 0;

/// \brief Sorted label name → value pairs identifying one instrument.
using LabelSet = std::map<std::string, std::string>;

/// \brief Monotonically increasing count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if constexpr (!kMetricsEnabled) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous signed value (queue depths, cache occupancy).
class Gauge {
 public:
  void Set(int64_t v) {
    if constexpr (!kMetricsEnabled) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if constexpr (!kMetricsEnabled) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

/// \brief Bucket of `v` in the LatencyBoundsUs() layout, computed from
/// its bits: unit buckets up to 4, then every power-of-two range
/// (2^e, 2^(e+1)] split into four equal buckets.  Values above the last
/// bound map to bounds.size(), the overflow bucket.
inline size_t LogLinearBucket(int64_t v) {
  constexpr size_t kUnitBuckets = 4;  // v <= 1, 2, 3, 4
  constexpr size_t kMaxBucket = 104;  // LatencyBoundsUs().size()
  if (v <= 1) return 0;
  const uint64_t u = static_cast<uint64_t>(v - 1);
  if (u < kUnitBuckets) return static_cast<size_t>(u);
  const int e = std::bit_width(u) - 1;  // u in [2^e, 2^(e+1)), e >= 2
  const size_t sub = static_cast<size_t>(u >> (e - 2)) & 3;
  return std::min(kUnitBuckets + 4 * static_cast<size_t>(e - 2) + sub,
                  kMaxBucket);
}

/// \brief Fixed-bucket histogram.  Bucket i counts observations
/// v <= bounds[i]; one implicit overflow bucket counts the rest.  With
/// the LatencyBoundsUs() layout the bucket index is computed
/// (LogLinearBucket); other bounds are binary-searched.
class Histogram {
 public:
  void Observe(int64_t v) {
    if constexpr (!kMetricsEnabled) return;
    const size_t i =
        log_linear_
            ? LogLinearBucket(v)
            : static_cast<size_t>(
                  std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                  bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// \brief Non-cumulative per-bucket counts; size() == bounds().size()+1.
  std::vector<uint64_t> bucket_counts() const;

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<int64_t> bounds);
  void Reset();
  std::vector<int64_t> bounds_;
  bool log_linear_ = false;  // bounds_ == LatencyBoundsUs()
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// \brief Log-linear microsecond bounds for latencies: 1, 2, 3, 4 µs,
/// then four equal steps per power of two up to 2^27 µs (~134 s), so a
/// bucket is at most 25% wider than its lower edge (104 bounds).
std::vector<int64_t> LatencyBoundsUs();
/// \brief Small-cardinality bounds for sizes/depths (1 .. 65536, x4).
std::vector<int64_t> SizeBounds();

struct CounterSnapshot {
  std::string name;
  LabelSet labels;
  uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  LabelSet labels;
  int64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  LabelSet labels;
  std::vector<int64_t> bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size()+1 (overflow last)
  uint64_t count = 0;
  int64_t sum = 0;

  /// \brief Estimated q-quantile (0 < q <= 1), interpolated linearly
  /// within the bucket that holds it (the first bucket spans [0,
  /// bounds[0]]).  One in the overflow bucket reads as the last bound;
  /// an empty histogram reads 0.
  int64_t Quantile(double q) const;
};

/// \brief Point-in-time copy of every instrument, deterministically
/// ordered by (name, labels).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// \brief Owner of all instruments.  Get*() registers on first use and
/// returns the same handle thereafter (same name+labels → same pointer).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, LabelSet labels = {});
  Gauge* GetGauge(const std::string& name, LabelSet labels = {});
  /// `bounds` must be strictly increasing; it is fixed at first
  /// registration (later calls with the same name+labels reuse it).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds, LabelSet labels = {});

  MetricsSnapshot Snapshot() const;
  /// \brief Zeroes every instrument; handles stay valid.
  void Reset();

  /// \brief Process-wide registry the built-in instrumentation uses.
  static MetricRegistry& Default();

 private:
  using Key = std::pair<std::string, LabelSet>;
  // mu_ guards only registration and snapshotting; instrument *values*
  // are relaxed atomics mutated lock-free through the stable handles.
  mutable Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

/// \brief A string literal as a template argument, so that a call site
/// can name its instrument at compile time and look its handle up once
/// (a function-local static per name), not on every use.
template <size_t N>
struct MetricName {
  constexpr MetricName(const char (&name)[N]) {
    std::copy_n(name, N, text);
  }
  char text[N];
};

}  // namespace obs
}  // namespace hyperion

#endif  // HYPERION_OBS_METRICS_H_
