// ReliableLink: the cover protocol's reliability layer (ack / retransmit
// / dedup / reorder) for one peer, over any Network (DESIGN.md §9).
//
// Every protocol-critical message (SessionInit, ComputePlan, CoverBatch,
// FinalRows) travels on a *channel* — (session, kind, partition, peer) —
// with a 1-based sequence number.  The receiver acks every accepted
// copy, suppresses duplicates, and holds out-of-order arrivals in a
// bounded reorder buffer so the peer always observes channel order (this
// is what keeps covers byte-identical under loss and jitter).  Each ack
// also carries the channel's next in-order seq: the sender drops every
// send below it (a lost ack is covered by the next one), and when it is
// below the acked seq the receiver has a hole, which the sender resends
// at once, at most once per send (fast retransmit).  Otherwise the
// sender first waits the link's adaptive RTO (link_rtt.h), then
// retransmits with exponential backoff until acked; exhausting the
// retries, or failing to arm the channel's timer, abandons the send,
// naming the peer and the phase.
//
// A channel's last message has no later ack to reveal its loss, so a
// channel still holding unacked sends one probe timeout (PTO,
// link_rtt.h) after its last transmission sends a tail-loss probe for
// its highest unacked seq, then probes again at doubling intervals.
// The receiver answers from its channel state: its next_expected, and
// whether it holds the probed seq.  The sender drops what the answer
// covers and resends next_expected at once if the probe left after
// that send's last transmission (on a FIFO link it was lost).  So a
// lost tail is resent one PTO and one round trip after it left, not
// after a 100 ms RTO; the RTO stays as the loss-declaring fallback.
//
// Each send keeps its own RTO deadline, backoff and attempt count, but a
// channel arms one timer for all of them and its probe, as RACK-TLP
// (RFC 8985) arms one per connection: it is due no later than the
// earliest of those deadlines, and moves only when one comes earlier.
// A timer that fires early re-arms for the rest.  EndSession stops all
// of it once the initiator is done.
//
// Not thread-safe: driven by its peer's handlers and timers, which the
// Network never runs concurrently.

#ifndef HYPERION_P2P_RELIABLE_LINK_H_
#define HYPERION_P2P_RELIABLE_LINK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/status.h"
#include "p2p/link_rtt.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"

namespace hyperion {

class ReliableLink {
 public:
  /// Sentinel partition for error-bearing FinalRows (failure reports are
  /// their own channel, so they cannot collide with data sequences).  As
  /// a trace event's signed partition it reads -1, "no partition".
  static constexpr uint64_t kErrorPartition = ~0ull;

  /// A send given up on.  By the time the callback runs, every send of
  /// the session has been dropped.  A failure report given up on is not
  /// reported: the initiator's own session deadline is the backstop.
  struct Abandoned {
    SessionId session = 0;
    Status status;          // names the peer and the phase
    std::string initiator;  // where the send's session reports failures
    int64_t timeout_us = 0;  // the session's configured RTO ceiling
    int max_retransmits = 0;
  };
  using DeliverFn = std::function<void(const Message&)>;
  using AbandonFn = std::function<void(const Abandoned&)>;

  /// `deliver` receives every message in channel order, unsequenced ones
  /// at once; `abandon` receives every send given up on.
  ReliableLink(std::string self, std::shared_ptr<LinkRttTable> link_rtt,
               DeliverFn deliver, AbandonFn abandon);

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// The network to send on and arm timers with; it must outlive the
  /// link's use.
  void Attach(Network* network) { network_ = network; }

  /// \brief Stamps the next seq of `msg`'s channel, sends, and keeps the
  /// send until it is acked, retransmitting it after the link's RTO (at
  /// most `timeout_us`) and up to `max_retransmits` times.  A session
  /// ended here sends nothing.  A timer that cannot be armed abandons the
  /// session and returns the status.
  Status Send(Message msg, int64_t timeout_us, int max_retransmits,
              const char* phase, const std::string& initiator);

  /// \brief Entry point for every message delivered to the peer: acks
  /// and probes are answered here; sequenced messages are acked,
  /// deduplicated and reordered; the rest goes straight to `deliver`.
  void Receive(const Message& msg);

  /// \brief Stops `session` here: cancels its channels' timers, and the
  /// link sends, retransmits and probes nothing more for it.  The send
  /// records stay, so an ack still in flight gives its round-trip sample.
  void EndSession(SessionId session);

  /// \brief Drops every outstanding send of `session` and its timers.
  void CancelSession(SessionId session);

 private:
  // The due time of a deadline that is not set.
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  // (session, kind, partition, remote peer) — the remote is the
  // destination on the send side and the source on the receive side.
  using ChannelKey = std::tuple<SessionId, uint8_t, uint64_t, std::string>;

  struct OutstandingSend {
    Message msg;  // full envelope, seq already stamped
    int attempts = 0;            // transmissions so far
    int64_t sent_at_us = 0;      // first transmission, for the RTT sample
    int64_t timeout_us = 0;      // wait before the next retransmission
    int64_t rto_due_us = 0;      // when the next retransmission is due
    bool fast_retransmitted = false;  // resent once on a reported hole
    uint64_t sent_order = 0;  // tx_order_ stamp of the last transmission
  };
  // An outgoing channel: its seq counter, its unacked sends and the one
  // timer that serves their retransmissions and the channel's probes.
  struct SendChannel {
    uint64_t last_seq = 0;
    std::map<uint64_t, OutstandingSend> sends;  // unacked, by seq
    // What every send of the channel shares (set by each Send).
    std::string phase;      // human-readable, for failure messages
    std::string initiator;  // where a failure report must go
    int64_t configured_timeout_us = 0;  // the session's RTO ceiling
    int max_retransmits = 0;
    Network::TimerId timer = 0;  // 0 = none armed
    int64_t timer_due_us = 0;    // when `timer` fires
    int64_t probe_due_us = kNever;  // when the next probe is due
    int64_t probe_backoff = 1;   // PTO multiple of the wait after a probe
    uint64_t probe_order = 0;    // tx_order_ stamp of the last probe
  };
  struct RecvChannel {
    uint64_t next_seq = 1;
    std::map<uint64_t, Message> parked;  // out-of-order, awaiting next_seq
  };
  // Why a send goes out again: its RTO expired, an ack reported it as a
  // hole, or a probe's answer reported it missing.
  enum class Resend { kTimer, kHole, kProbe };

  // Sends `out` again and restarts the channel's probe cycle.
  void Retransmit(const ChannelKey& key, SendChannel* channel, uint64_t seq,
                  OutstandingSend* out, Resend cause);
  // Starts the channel's probe cycle after a transmission whose RTO wait
  // is `rto_us`: the next probe is due one PTO from now.  A link with no
  // PTO, or a PTO no shorter than the RTO, is not probed.
  void RestartProbe(const ChannelKey& key, SendChannel* channel,
                    int64_t rto_us);
  // Makes the channel's timer fire no later than `due_us`: an armed
  // timer due no later stays, and fires first.  A timer that cannot be
  // armed abandons the channel; the error names the peer and the phase.
  Status ArmTimer(const ChannelKey& key, SendChannel* channel,
                  int64_t due_us);
  // Cancels the channel's timer and ends its probe cycle.
  void Disarm(SendChannel* channel);
  // The channel timer: retransmits every send whose RTO is due, sends
  // the due probe, and re-arms for the earliest deadline left.
  void OnTimer(const ChannelKey& key);
  // Gives up on the channel: cancels its session's sends and reports
  // the failure.
  void Abandon(const ChannelKey& key, const SendChannel& channel,
               const Status& status);
  // Drops the acked send and every send below the ack's next_expected;
  // fast-retransmits the hole an ack or a probe's answer reports.
  void OnAck(const Message& msg);
  // Receive side: answers a probe from the channel's state.
  void OnProbe(const Message& msg);
  // Receive side: ack, dedup, reorder, then deliver in channel order.
  void Admit(const Message& msg, const ChannelKey& key, uint64_t seq);
  void SendAck(const ChannelKey& key, uint64_t seq, uint64_t next_expected,
               AckType type = AckType::kArrival);

  const std::string self_;
  const std::shared_ptr<LinkRttTable> link_rtt_;
  const DeliverFn deliver_;
  const AbandonFn abandon_;
  Network* network_ = nullptr;
  std::map<ChannelKey, SendChannel> send_channels_;
  std::map<ChannelKey, RecvChannel> recv_channels_;
  // Orders this peer's transmissions and probes: a probe's answer
  // reveals a loss only of sends stamped before the probe.
  uint64_t tx_order_ = 0;
  // Sessions EndSession has ended: no sends, no retransmits.
  std::set<SessionId> ended_sessions_;
};

}  // namespace hyperion

#endif  // HYPERION_P2P_RELIABLE_LINK_H_
