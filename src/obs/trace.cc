#include "obs/trace.h"

#include <chrono>
#include <utility>

namespace hyperion {
namespace obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SessionTracer::SessionTracer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(SteadyNowNs()) {}

void SessionTracer::Record(TraceEvent ev) {
  if constexpr (!kMetricsEnabled) return;
  if (!enabled()) return;
  MutexLock lock(mu_);
  ev.wall_us = (SteadyNowNs() - epoch_ns_) / 1000;
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> SessionTracer::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: once wrapped, the event at next_ is the oldest.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void SessionTracer::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

uint64_t SessionTracer::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

uint64_t SessionTracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

SessionTracer& SessionTracer::Default() {
  static SessionTracer* tracer = new SessionTracer();
  return *tracer;
}

void RecordEvent(std::string peer, std::string kind, std::string detail,
                 int64_t value) {
  TraceEvent ev;
  ev.peer = std::move(peer);
  ev.kind = std::move(kind);
  ev.detail = std::move(detail);
  ev.value = value;
  SessionTracer::Default().Record(std::move(ev));
}

}  // namespace obs
}  // namespace hyperion
