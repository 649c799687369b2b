// The network abstraction peers run on.  Two implementations:
//
//  * SimNetwork (network.h) — single-threaded discrete-event simulation
//    with a virtual clock; deterministic, models latency/bandwidth, and
//    charges measured compute to the clock.  The default for tests and
//    for the calibrated experiment harnesses.
//  * TcpNetwork (tcp_network.h) — real POSIX sockets driven by one
//    event-loop thread, wall-clock time; peers may live in separate
//    processes.  The cluster runtime (src/cluster/) runs on it.
//
// Both transports accept a FaultPlan: a deterministic (seedable)
// description of message loss, duplication, delay jitter, scripted link
// outages and peer crash/restart windows.  The fault layer sits below
// the peers — a dropped message simply never arrives — so the protocol
// must survive it with its own timeouts and retransmissions, which is
// what the ScheduleTimer API exists for.

#ifndef HYPERION_P2P_NETWORK_INTERFACE_H_
#define HYPERION_P2P_NETWORK_INTERFACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "p2p/message.h"

namespace hyperion {

/// \brief Aggregate traffic statistics.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  std::map<std::string, uint64_t> messages_by_type;
  // Fault-injection accounting (zero when no FaultPlan is installed).
  uint64_t drops_injected = 0;       // messages silently discarded
  uint64_t duplicates_injected = 0;  // extra copies delivered
  uint64_t crash_discards = 0;       // deliveries to a crashed peer
  uint64_t timers_fired = 0;         // ScheduleTimer callbacks executed
};

/// \brief A deterministic description of the faults a network injects.
///
/// All probabilities are per message copy; all times are in the owning
/// network's clock (virtual µs for SimNetwork, wall µs since
/// construction for TcpNetwork).  A QueryService
/// plan is relative to each session's start instead: the service
/// installs it ShiftedBy() the session network's now_us(), since its tcp
/// networks outlive sessions.  Given the same seed and the same send
/// sequence, SimNetwork replays the exact same faults.
struct FaultPlan {
  /// \brief Faults applied to one directed link.
  struct LinkFaults {
    double drop_rate = 0.0;       // P(message copy vanishes)
    double dup_rate = 0.0;        // P(an extra copy is delivered)
    int64_t delay_jitter_us = 0;  // extra delay ~ Uniform[0, jitter]
    /// Scripted outage windows [start, end) — messages departing inside
    /// one are dropped (models a link that is down for a while).
    std::vector<std::pair<int64_t, int64_t>> outages_us;

    bool any() const {
      return drop_rate > 0 || dup_rate > 0 || delay_jitter_us > 0 ||
             !outages_us.empty();
    }
  };

  /// \brief A peer that dies at crash_at_us and (optionally) comes back
  /// at restart_at_us (-1 = never).  While down it receives nothing and
  /// its timers do not fire; in-memory state survives the window (the
  /// model is an unreachable process, not a wiped disk).
  struct CrashWindow {
    int64_t crash_at_us = 0;
    int64_t restart_at_us = -1;
  };

  /// Faults for links without a per-link override.
  LinkFaults default_link;
  /// Per-(from, to) overrides.
  std::map<std::pair<std::string, std::string>, LinkFaults> links;
  /// Scripted peer crashes, by peer id.
  std::map<std::string, CrashWindow> crashes;
  /// Seed for the drop/dup/jitter draws.
  uint64_t seed = 1;

  /// \brief The faults governing the (from → to) link.
  const LinkFaults& ForLink(const std::string& from,
                            const std::string& to) const {
    auto it = links.find({from, to});
    return it == links.end() ? default_link : it->second;
  }

  /// \brief Whether `peer` is inside a crash window at time `t_us`.
  bool PeerDownAt(const std::string& peer, int64_t t_us) const {
    auto it = crashes.find(peer);
    if (it == crashes.end()) return false;
    const CrashWindow& w = it->second;
    return t_us >= w.crash_at_us &&
           (w.restart_at_us < 0 || t_us < w.restart_at_us);
  }

  /// \brief This plan with every outage and crash window `offset_us`
  /// later (a never-restarting crash stays never-restarting).
  FaultPlan ShiftedBy(int64_t offset_us) const {
    FaultPlan shifted = *this;
    auto shift = [offset_us](LinkFaults* faults) {
      for (auto& [start, end] : faults->outages_us) {
        start += offset_us;
        end += offset_us;
      }
    };
    shift(&shifted.default_link);
    for (auto& [link, faults] : shifted.links) {
      (void)link;
      shift(&faults);
    }
    for (auto& [peer, window] : shifted.crashes) {
      (void)peer;
      window.crash_at_us += offset_us;
      if (window.restart_at_us >= 0) window.restart_at_us += offset_us;
    }
    return shifted;
  }

  /// \brief True when the plan can never inject anything.
  bool empty() const {
    if (default_link.any() || !crashes.empty()) return false;
    for (const auto& [link, faults] : links) {
      (void)link;
      if (faults.any()) return false;
    }
    return true;
  }
};

/// \brief Message transport between peers.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using TimerId = uint64_t;
  using TimerCallback = std::function<void()>;

  virtual ~Network() = default;

  /// \brief Registers a peer; `handler` is invoked for each delivery.
  /// Handlers for one peer never run concurrently with each other.
  virtual Status RegisterPeer(const std::string& id, Handler handler) = 0;

  /// \brief Queues `msg` for delivery.  Callable from inside handlers.
  /// Returning OK does NOT imply eventual delivery once a FaultPlan is
  /// installed — the fault layer may drop the message silently.
  virtual Status Send(Message msg) = 0;

  /// \brief Runs `cb` at `peer` after `delay_us` of this network's time
  /// (virtual for SimNetwork, wall for TcpNetwork).
  /// The callback executes like a message handler: on the peer's
  /// timeline, never concurrently with the peer's other handlers, and not
  /// at all while the peer is inside a crash window.  Returns an id for
  /// CancelTimer.
  virtual Result<TimerId> ScheduleTimer(const std::string& peer,
                                        int64_t delay_us,
                                        TimerCallback cb) = 0;

  /// \brief Cancels a pending timer; no-op when it already fired or was
  /// already cancelled.
  virtual void CancelTimer(TimerId id) = 0;

  /// \brief Installs (or replaces) the fault plan.  Faults apply to
  /// sends issued after the call.
  virtual void SetFaultPlan(FaultPlan plan) = 0;

  /// \brief Time in microseconds — virtual for SimNetwork, wall for
  /// TcpNetwork.
  virtual int64_t now_us() const = 0;

  /// \brief Extra compute charge for the current handler's peer (no-op
  /// where time is real).
  virtual void ChargeCompute(int64_t micros) = 0;

  /// \brief Snapshot of the traffic counters.
  virtual NetworkStats stats() const = 0;

  /// \brief Zeroes the traffic counters (bench harnesses reset between
  /// sessions; TcpNetwork otherwise accumulates forever).
  virtual void ResetStats() = 0;

  /// \brief Blocks a thread that runs none of this network's handlers
  /// until `ready()` holds.  `block` parks the caller until a handler
  /// made `ready()` hold (a condition-variable wait the handler
  /// signals).  Where the network's own thread runs the handlers
  /// (TcpNetwork) that is all there is to do, so this default calls
  /// `block` once.  SimNetwork runs only when driven and overrides it to
  /// dispatch events on the caller's thread instead.
  virtual Status Await(const std::function<bool()>& ready,
                       const std::function<void()>& block) {
    (void)ready;
    block();
    return Status::OK();
  }
};

/// \brief Records one send into the default MetricRegistry
/// (net.messages_sent / net.bytes_sent, labeled by message type and
/// network kind).  Shared by every Network implementation.  The handles
/// are resolved on each (type, network)'s first send, not per send.
template <obs::MetricName network_kind>
void RecordNetworkSend(const Message& msg, size_t bytes) {
  if constexpr (obs::kMetricsEnabled) {
    constexpr size_t kTypes = std::size(Message::kTypeNames);
    static std::array<std::atomic<obs::Counter*>, kTypes> sent_messages{};
    static std::array<std::atomic<obs::Counter*>, kTypes> sent_bytes{};
    const size_t type = msg.payload.index();
    obs::Counter* messages = sent_messages[type].load();
    obs::Counter* byte_count = sent_bytes[type].load();
    if (messages == nullptr || byte_count == nullptr) {
      // Racing first sends resolve the same handles.
      obs::MetricRegistry& reg = obs::MetricRegistry::Default();
      obs::LabelSet labels{{"type", msg.TypeName()},
                           {"network", network_kind.text}};
      messages = reg.GetCounter("net.messages_sent", labels);
      byte_count = reg.GetCounter("net.bytes_sent", std::move(labels));
      sent_messages[type].store(messages);
      sent_bytes[type].store(byte_count);
    }
    messages->Add(1);
    byte_count->Add(bytes);
  }
}

/// \brief Records one injected fault event (`net.drops_injected`,
/// `net.duplicates_injected`, `net.crash_discards`) labeled by network
/// kind.  Shared by every Network implementation.
void RecordFaultEvent(const char* metric, const char* network_kind);

}  // namespace hyperion

#endif  // HYPERION_P2P_NETWORK_INTERFACE_H_
