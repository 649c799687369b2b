// Shorthand for the cover protocol's counters and session trace events
// (docs/METRICS.md), shared by PeerNode and its ReliableLink.

#ifndef HYPERION_P2P_PROTO_TRACE_H_
#define HYPERION_P2P_PROTO_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/network_interface.h"

namespace hyperion {

// Adds `n` to the protocol counter `name` in the default registry,
// through a handle looked up once per name.
template <obs::MetricName name>
void CountProto(uint64_t n = 1) {
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter* const counter =
        obs::MetricRegistry::Default().GetCounter(name.text);
    counter->Add(n);
  }
}

// Structured span/event record for the session tracer.  `net` supplies
// the virtual clock; everything else identifies the step.
inline void TraceProto(const Network* net, const std::string& peer,
                       const char* kind, uint64_t session, int64_t partition,
                       int hop, int64_t value, std::string detail = {}) {
  if constexpr (obs::kMetricsEnabled) {
    obs::SessionTracer& tracer = obs::SessionTracer::Default();
    if (!tracer.enabled()) return;
    tracer.Record({.virtual_us = net == nullptr ? 0 : net->now_us(),
                   .session = session,
                   .partition = partition,
                   .hop = hop,
                   .peer = peer,
                   .kind = kind,
                   .detail = std::move(detail),
                   .value = value});
  }
}

}  // namespace hyperion

#endif  // HYPERION_P2P_PROTO_TRACE_H_
