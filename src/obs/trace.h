// SessionTracer: a bounded ring buffer of structured protocol events.
//
// Where metrics.h aggregates, the tracer keeps individual records — which
// peer did what, for which session/partition, at which hop, and when (both
// the network's virtual clock and host wall time) — so a single cover
// session's per-partition streaming behaviour can be reconstructed after
// the fact (the per-hop observability HepToX-style systems use to justify
// their translations).  The buffer is bounded: once `capacity` events are
// held the oldest are overwritten and counted as dropped.
//
// Tracing is off by default (recording allocates strings, which would
// perturb SimNetwork's measured-compute virtual clock); benches and the
// CLI enable it around the region of interest.

#ifndef HYPERION_OBS_TRACE_H_
#define HYPERION_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/synchronization.h"
#include "obs/metrics.h"  // HYPERION_METRICS / kMetricsEnabled

namespace hyperion {
namespace obs {

/// \brief One structured protocol event.
struct TraceEvent {
  int64_t virtual_us = 0;   ///< Network::now_us() at record time.
  int64_t wall_us = 0;      ///< Host steady-clock µs (tracer epoch).
  uint64_t session = 0;     ///< Cover-session id (0 when not session bound).
  int64_t partition = -1;   ///< Inferred-partition index, -1 when N/A.
  int hop = -1;             ///< Recording peer's hop on the path, -1 N/A.
  std::string peer;         ///< Recording peer id.
  std::string kind;         ///< Event name, e.g. "cover.batch_sent".
  std::string detail;       ///< Free-form qualifier (message type, ...).
  int64_t value = 0;        ///< Magnitude (rows, bytes, ...).
};

/// \brief Thread-safe bounded event ring.
class SessionTracer {
 public:
  explicit SessionTracer(size_t capacity = 8192);

  /// \brief Records `ev` when enabled; overwrites the oldest event (and
  /// counts it dropped) once the ring is full.
  void Record(TraceEvent ev);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// \brief Events currently held, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;  ///< Total Record() calls while enabled.
  uint64_t dropped() const;   ///< Events overwritten by the ring.

  /// \brief Process-wide tracer the built-in instrumentation uses.
  static SessionTracer& Default();

 private:
  mutable Mutex mu_;
  const size_t capacity_;
  // Ring state: grows to capacity_, then wraps at the next_ cursor.
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;
  uint64_t recorded_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::atomic<bool> enabled_{false};  // lock-free fast-path gate
  const int64_t epoch_ns_;
};

/// \brief Records an event bound to no session (peer, kind, detail and
/// value only — the shape of every cluster event) on the default tracer.
void RecordEvent(std::string peer, std::string kind, std::string detail,
                 int64_t value = 0);

}  // namespace obs
}  // namespace hyperion

#endif  // HYPERION_OBS_TRACE_H_
