// SimNetwork: a discrete-event simulation of the peer-to-peer network.
//
// The paper's experiments ran on geographically distributed machines; we
// substitute a virtual-time simulator that preserves the properties those
// experiments measure: message latency and bandwidth are modeled (so
// traffic patterns matter), peers are busy while computing (handler
// execution is measured on the host's steady clock and charged to the
// peer's virtual timeline), and independent peers overlap in virtual time
// (so streaming and per-partition parallelism show up even on one host
// core).
//
// Handlers run to completion at a virtual instant window: a message
// arriving at time t at a peer busy until b starts processing at
// max(t, b); sends issued during the handler depart at the processing
// start plus the compute time consumed so far.
//
// With a FaultPlan installed (SetFaultPlan) the simulator additionally
// drops, duplicates and jitters messages and discards deliveries to
// crashed peers — fully deterministically from the plan's seed.  Timers
// (ScheduleTimer) share the event queue, so timeouts interleave with
// deliveries in exact virtual-time order.

#ifndef HYPERION_P2P_NETWORK_H_
#define HYPERION_P2P_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "p2p/fault.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"

namespace hyperion {

/// \brief Discrete-event network simulator with a virtual clock in
/// microseconds.
class SimNetwork : public Network {
 public:
  struct Options {
    /// One-way per-message latency, microseconds (WAN-ish default 40ms).
    int64_t latency_us = 40'000;
    /// Per-link overrides of latency_us, keyed (from, to) — the paper's
    /// peers were geographically distributed, so links were not uniform.
    std::map<std::pair<std::string, std::string>, int64_t> link_latency_us;
    /// Transmission cost per payload byte, microseconds (default models
    /// ~10 MB/s of effective peer uplink).
    double us_per_byte = 0.1;
    /// Fixed receive-side processing charge per delivered message
    /// (framing, dispatch); this is what makes very small stream batches
    /// expensive, as in the paper's cache-size discussion.
    int64_t per_message_overhead_us = 2'000;
    /// Scale factor from measured host compute time to virtual time.
    double compute_scale = 1.0;
  };

  /// RunUntil's deadline for "until the predicate holds or the queue
  /// drains".
  static constexpr int64_t kNoDeadline = INT64_MAX;

  SimNetwork();  // default options
  explicit SimNetwork(Options options) : options_(options) {}

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// \brief Registers a peer; `handler` is invoked for each delivery.
  Status RegisterPeer(const std::string& id, Handler handler) override;

  bool HasPeer(const std::string& id) const { return peers_.count(id) > 0; }

  /// \brief Queues `msg` for delivery.  Legal both from inside a handler
  /// (departure time = sender's current virtual time) and from outside
  /// (departure = current global virtual time).  With a FaultPlan the
  /// message may be dropped, duplicated or delayed here.
  Status Send(Message msg) override;

  /// \brief Schedules `cb` on `peer`'s virtual timeline at
  /// now_us() + delay_us.  Timers are exempt from fault injection but
  /// are discarded if the peer is inside a crash window when they fire.
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override;

  void CancelTimer(TimerId id) override;

  /// \brief Installs the fault plan (deterministic from plan.seed).
  void SetFaultPlan(FaultPlan plan) override;

  /// \brief Dispatches events until the queue drains.  Returns the final
  /// virtual time.  The no-predicate, no-deadline case of RunUntil.
  Result<int64_t> Run();

  /// \brief Dispatches events in virtual-time order until `pred()` holds
  /// (checked before every event; null never holds), the queue drains,
  /// or the next event is due after `deadline_us` — the clock then
  /// stands at `deadline_us`.  Returns pred()'s final value.  Protocols
  /// that re-arm timers forever (cluster heartbeats) never drain, so
  /// they run to a predicate or a deadline instead of Run().  Called from
  /// inside a handler it fails with FailedPrecondition: the handler's own
  /// event is mid-dispatch, and pumping would recurse into it.
  Result<bool> RunUntil(const std::function<bool()>& pred,
                        int64_t deadline_us);

  /// \brief Nothing else runs this network, so the waiting caller
  /// dispatches events itself until `ready()` holds; `block` is never
  /// called.  Fails when the queue drains first (nothing could ever make
  /// `ready()` hold) or when called from inside a handler.
  Status Await(const std::function<bool()>& ready,
               const std::function<void()>& block) override;

  /// \brief Virtual clock (µs).  During a handler this is the handling
  /// peer's current time (processing start + compute charged so far).
  int64_t now_us() const override;

  /// \brief Additional explicit compute charge (µs of virtual time) for
  /// the currently running handler's peer.
  void ChargeCompute(int64_t micros) override;

  NetworkStats stats() const override { return stats_; }
  void ResetStats() override { stats_ = NetworkStats(); }

  const Options& options() const { return options_; }

 private:
  struct Event {
    int64_t time;
    uint64_t seq;  // FIFO tie-break
    int64_t depart;  // virtual send time, for delivery-latency accounting
    Message msg;
    // Timer events: fire `timer_cb` at `timer_peer` (msg unused).
    TimerId timer_id = 0;  // 0 = message event
    std::string timer_peer;
    TimerCallback timer_cb;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  // Virtual time consumed so far by the currently running handler.
  int64_t CurrentComputeMicros() const;

  // Runs `body` in a handler context for `peer` starting at virtual
  // `start`, charging `initial_charge_us` (per-message overhead for
  // deliveries, zero for timer callbacks) plus measured compute to the
  // peer's clock.
  template <typename Body>
  void RunOnPeer(const std::string& peer, int64_t start,
                 int64_t initial_charge_us, Body&& body);

  Options options_;
  std::map<std::string, Handler> peers_;
  std::map<std::string, int64_t> busy_until_;
  // FIFO guarantee per (from, to) link — only while no fault plan is
  // active (fault jitter deliberately reorders).
  std::map<std::pair<std::string, std::string>, int64_t> last_arrival_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  NetworkStats stats_;
  uint64_t next_seq_ = 0;

  FaultInjector faults_;
  TimerId next_timer_id_ = 1;
  std::set<TimerId> cancelled_timers_;

  int64_t clock_us_ = 0;           // global virtual clock
  bool in_handler_ = false;
  std::string current_peer_;
  int64_t handler_start_us_ = 0;   // virtual processing start
  int64_t handler_wall_start_ns_ = 0;
  int64_t handler_extra_charge_us_ = 0;
};

}  // namespace hyperion

#endif  // HYPERION_P2P_NETWORK_H_
