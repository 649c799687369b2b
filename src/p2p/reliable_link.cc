#include "p2p/reliable_link.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "p2p/proto_trace.h"

namespace hyperion {

namespace {

enum ReliableKind : uint8_t {
  kRelInit = 0,
  kRelPlan = 1,
  kRelBatch = 2,
  kRelFinal = 3,
};

constexpr size_t kMaxReorderPerChannel = 1024;

// The channel (session, kind, partition) a sequenced session payload
// travels on, and its seq field; `seq` is null for every other payload.
// `Msg` is Message or const Message.
template <class Msg>
auto Sequenced(Msg& msg) {
  using Seq = std::conditional_t<std::is_const_v<Msg>, const uint64_t,
                                 uint64_t>;
  struct Channel {
    SessionId session = 0;
    uint8_t kind = 0;
    uint64_t partition = 0;
    Seq* seq = nullptr;
  };
  return std::visit(
      [](auto& p) -> Channel {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, SessionInitMsg>) {
          return {p.spec.id, kRelInit, 0, &p.seq};
        } else if constexpr (std::is_same_v<P, ComputePlanMsg>) {
          return {p.spec.id, kRelPlan, 0, &p.seq};
        } else if constexpr (std::is_same_v<P, CoverBatchMsg>) {
          return {p.session, kRelBatch, p.partition, &p.seq};
        } else if constexpr (std::is_same_v<P, FinalRowsMsg>) {
          return {p.session, kRelFinal, p.partition, &p.seq};
        } else {
          return {};
        }
      },
      msg.payload);
}

}  // namespace

ReliableLink::ReliableLink(std::string self,
                           std::shared_ptr<LinkRttTable> link_rtt,
                           DeliverFn deliver, AbandonFn abandon)
    : self_(std::move(self)),
      link_rtt_(std::move(link_rtt)),
      deliver_(std::move(deliver)),
      abandon_(std::move(abandon)) {}

Status ReliableLink::Send(Message msg, int64_t timeout_us,
                          int max_retransmits, const char* phase,
                          const std::string& initiator) {
  const auto channel = Sequenced(msg);
  if (channel.seq == nullptr) {
    return Status::InvalidArgument("not a sequenced message");
  }
  // The initiator is done with an ended session: nobody needs the
  // message, and a send would re-arm a timer the session just shed.
  if (ended_sessions_.count(channel.session)) return Status::OK();
  const ChannelKey key{channel.session, channel.kind, channel.partition,
                       msg.to};
  SendChannel& ch = send_channels_[key];
  const uint64_t seq = ++ch.last_seq;
  *channel.seq = seq;
  ch.phase = phase;
  ch.initiator = initiator;
  ch.configured_timeout_us = timeout_us > 0 ? timeout_us : 1;
  ch.max_retransmits = max_retransmits < 0 ? 0 : max_retransmits;
  OutstandingSend& out = ch.sends[seq];
  out.msg = msg;
  out.attempts = 1;
  out.timeout_us = link_rtt_->Rto(self_, msg.to, ch.configured_timeout_us);
  out.sent_at_us = network_->now_us();
  out.rto_due_us = out.sent_at_us + out.timeout_us;
  out.sent_order = ++tx_order_;
  Status sent = network_->Send(std::move(msg));
  if (!sent.ok()) {
    ch.sends.erase(seq);
    return sent;
  }
  RestartProbe(key, &ch, out.timeout_us);
  return ArmTimer(key, &ch, std::min(out.rto_due_us, ch.probe_due_us));
}

void ReliableLink::Receive(const Message& msg) {
  if (std::holds_alternative<AckMsg>(msg.payload)) {
    OnAck(msg);
    return;
  }
  if (std::holds_alternative<ProbeMsg>(msg.payload)) {
    OnProbe(msg);
    return;
  }
  // Seq 0 marks unsequenced traffic — discovery, searches, locally
  // delivered copies — which is delivered at once.
  const auto ch = Sequenced(msg);
  if (ch.seq == nullptr || *ch.seq == 0 || msg.from == self_) {
    deliver_(msg);
    return;
  }
  Admit(msg, ChannelKey{ch.session, ch.kind, ch.partition, msg.from},
        *ch.seq);
}

Status ReliableLink::ArmTimer(const ChannelKey& key, SendChannel* channel,
                              int64_t due_us) {
  if (channel->timer != 0) {
    if (channel->timer_due_us <= due_us) return Status::OK();
    network_->CancelTimer(channel->timer);
    channel->timer = 0;
  }
  const int64_t now = network_->now_us();
  auto timer =
      network_->ScheduleTimer(self_, std::max<int64_t>(0, due_us - now),
                              [this, key] { OnTimer(key); });
  if (timer.ok()) {
    channel->timer = timer.value();
    channel->timer_due_us = std::max(due_us, now);
    return Status::OK();
  }
  // Without its timer the channel could never resend a lost message.
  std::string message = "cannot arm the retransmit timer for peer '";
  message.append(std::get<3>(key))
      .append("' during ")
      .append(channel->phase)
      .append(" of session ")
      .append(std::to_string(std::get<0>(key)))
      .append(": ")
      .append(timer.status().message());
  Status status(timer.status().code(), std::move(message));
  Abandon(key, *channel, status);
  return status;
}

void ReliableLink::Disarm(SendChannel* channel) {
  if (channel->timer != 0) network_->CancelTimer(channel->timer);
  channel->timer = 0;
  channel->probe_due_us = kNever;
  channel->probe_order = 0;
}

void ReliableLink::Abandon(const ChannelKey& key, const SendChannel& channel,
                           const Status& status) {
  const auto& [session, kind, partition, to] = key;
  const bool failure_report =
      kind == kRelFinal && partition == kErrorPartition;
  Abandoned abandoned{session, status, channel.initiator,
                      channel.configured_timeout_us, channel.max_retransmits};
  CancelSession(session);
  if (!failure_report) abandon_(abandoned);
}

void ReliableLink::OnTimer(const ChannelKey& key) {
  // A channel whose last send was acked has cancelled its timer.
  auto it = send_channels_.find(key);
  if (it == send_channels_.end() || it->second.sends.empty()) return;
  SendChannel& ch = it->second;
  ch.timer = 0;
  const int64_t now = network_->now_us();
  const auto& [session, kind, partition, to] = key;
  // Retransmissions first: each restarts the probe cycle, so a probe due
  // now is not sent right behind a resend.
  for (auto& [seq, out] : ch.sends) {
    if (out.rto_due_us > now) continue;
    if (out.attempts > ch.max_retransmits) {
      std::string message = "peer '";
      message.append(to)
          .append("' unreachable: no ack after ")
          .append(std::to_string(out.attempts))
          .append(" attempts during ")
          .append(ch.phase)
          .append(" of session ")
          .append(std::to_string(session));
      Status status = Status::Unavailable(std::move(message));
      TraceProto(network_, self_, "reliable.unreachable", session,
                 static_cast<int64_t>(partition), -1,
                 static_cast<int64_t>(seq), status.ToString());
      Abandon(key, ch, status);
      return;
    }
    out.timeout_us *= 2;
    out.rto_due_us = now + out.timeout_us;
    Retransmit(key, &ch, seq, &out, Resend::kTimer);
  }
  if (ch.probe_due_us <= now) {
    const uint64_t seq = ch.sends.rbegin()->first;  // the highest
    ch.probe_order = ++tx_order_;
    CountProto<"proto.probes">();
    std::string detail = "to '";
    detail.append(to).append("'");
    TraceProto(network_, self_, "reliable.probe", session,
               static_cast<int64_t>(partition), -1,
               static_cast<int64_t>(seq), std::move(detail));
    // Best-effort, like an ack: a lost probe is followed by the next one.
    IgnoreStatus(network_->Send(Message{
        self_, to,
        ProbeMsg{
            .session = session, .kind = kind, .partition = partition,
            .seq = seq}}));
    ch.probe_backoff *= 2;
    ch.probe_due_us = now + ch.probe_backoff * link_rtt_->Pto(self_, to);
  }
  int64_t due = ch.probe_due_us;
  for (const auto& [seq, out] : ch.sends) due = std::min(due, out.rto_due_us);
  // A timer that cannot be re-armed abandons the session (ArmTimer).
  IgnoreStatus(ArmTimer(key, &ch, due));
}

void ReliableLink::Retransmit(const ChannelKey& key, SendChannel* channel,
                              uint64_t seq, OutstandingSend* out,
                              Resend cause) {
  const auto& [session, kind, partition, to] = key;
  out->attempts += 1;
  CountProto<"proto.retransmits">();
  if (cause != Resend::kTimer) CountProto<"proto.fast_retransmits">();
  std::string detail = "to '";
  detail.append(to).append("' attempt ").append(
      std::to_string(out->attempts));
  if (cause == Resend::kHole) detail.append(" (hole reported)");
  if (cause == Resend::kProbe) detail.append(" (probe answered missing)");
  TraceProto(network_, self_, "reliable.retransmit", session,
             static_cast<int64_t>(partition), -1,
             static_cast<int64_t>(seq), std::move(detail));
  // Best-effort: a retransmission that cannot be sent is equivalent to
  // one that was lost in flight — the RTO expires again, and the attempt
  // cap turns persistent failure into a loud session error.
  out->sent_order = ++tx_order_;
  IgnoreStatus(network_->Send(out->msg));
  RestartProbe(key, channel, out->timeout_us);
}

void ReliableLink::RestartProbe(const ChannelKey& key, SendChannel* channel,
                                int64_t rto_us) {
  const int64_t pto = link_rtt_->Pto(self_, std::get<3>(key));
  if (pto <= 0 || pto >= rto_us) {
    channel->probe_due_us = kNever;
    channel->probe_order = 0;
    return;
  }
  channel->probe_due_us = network_->now_us() + pto;
  channel->probe_backoff = 1;
}

void ReliableLink::OnProbe(const Message& msg) {
  const auto& probe = std::get<ProbeMsg>(msg.payload);
  const ChannelKey key{probe.session, probe.kind, probe.partition, msg.from};
  // Answered from the channel's state, never creating any: a channel
  // never seen expects seq 1.
  uint64_t next_expected = 1;
  bool held = false;
  if (auto it = recv_channels_.find(key); it != recv_channels_.end()) {
    next_expected = it->second.next_seq;
    held = probe.seq < next_expected || it->second.parked.count(probe.seq);
  }
  SendAck(key, probe.seq, next_expected,
          held ? AckType::kProbeHeld : AckType::kProbeMissing);
}

void ReliableLink::OnAck(const Message& msg) {
  const auto& ack = std::get<AckMsg>(msg.payload);
  const ChannelKey key{ack.session, ack.kind, ack.partition, msg.from};
  auto it = send_channels_.find(key);
  if (it == send_channels_.end()) return;
  SendChannel& ch = it->second;
  std::map<uint64_t, OutstandingSend>& sends = ch.sends;
  // Selective: the acked send itself, or a probed send the receiver
  // holds.  Karn's rule: an ack after a retransmission cannot say which
  // copy it answers, so only the exact ack of a first-attempt send gives
  // a round-trip sample (a probe is no attempt; its answer gives none).
  if (auto acked = ack.type == AckType::kProbeMissing ? sends.end()
                                                      : sends.find(ack.seq);
      acked != sends.end()) {
    if (ack.type == AckType::kArrival && acked->second.attempts == 1) {
      const int64_t rtt_us = network_->now_us() - acked->second.sent_at_us;
      link_rtt_->AddSample(self_, msg.from, rtt_us);
      if constexpr (obs::kMetricsEnabled) {
        static obs::Histogram* const ack_rtt =
            obs::MetricRegistry::Default().GetHistogram(
                "proto.ack_rtt_us", obs::LatencyBoundsUs());
        ack_rtt->Observe(rtt_us);
      }
    }
    sends.erase(acked);
  }
  // Cumulative: everything below next_expected has arrived, whether or
  // not its own ack made it back.
  sends.erase(sends.begin(), sends.lower_bound(ack.next_expected));
  if (sends.empty()) {
    Disarm(&ch);  // nothing left unacked, nothing to time or probe
    return;
  }
  if (ended_sessions_.count(ack.session)) return;
  auto hole = sends.find(ack.next_expected);
  if (hole == sends.end()) return;
  if (ack.type == AckType::kArrival) {
    // A next_expected below the acked seq is a hole at the receiver.  On
    // a FIFO link that means a drop, so resend it now rather than after
    // the RTO; its RTO deadline and backoff keep running.
    if (ack.next_expected >= ack.seq || hole->second.fast_retransmitted) {
      return;
    }
    hole->second.fast_retransmitted = true;
    Retransmit(key, &ch, hole->first, &hole->second, Resend::kHole);
  } else {
    // A probe's answer: the receiver still waits for next_expected.  If
    // the probe left after that send's last transmission, the send was
    // lost (FIFO link).  Comparing the stamps keeps a duplicated probe or
    // answer to one resend.
    if (ch.probe_order <= hole->second.sent_order) return;
    Retransmit(key, &ch, hole->first, &hole->second, Resend::kProbe);
  }
  // The resend restarted the probe cycle; a timer that cannot be moved
  // earlier abandons the session (ArmTimer).
  IgnoreStatus(ArmTimer(key, &ch, ch.probe_due_us));
}

void ReliableLink::SendAck(const ChannelKey& key, uint64_t seq,
                           uint64_t next_expected, AckType type) {
  const auto& [session, kind, partition, to] = key;
  // Best-effort: a lost ack is covered by the channel's next ack, or the
  // sender retransmits and the receiver's dedup discards the duplicate.
  IgnoreStatus(network_->Send(Message{
      self_, to,
      AckMsg{.session = session, .kind = kind, .partition = partition,
             .seq = seq, .next_expected = next_expected, .type = type}}));
}

void ReliableLink::Admit(const Message& msg, const ChannelKey& key,
                         uint64_t seq) {
  RecvChannel& channel = recv_channels_[key];
  if (seq < channel.next_seq) {
    // Retransmission of something already processed: re-ack (the first
    // ack may have been lost) and drop.
    CountProto<"net.duplicates_suppressed">();
    SendAck(key, seq, channel.next_seq);
    return;
  }
  if (seq > channel.next_seq) {
    // Out of order.  Park it — but only ack what we can hold; dropping
    // an acked message would lose it for good.
    if (channel.parked.size() >= kMaxReorderPerChannel &&
        !channel.parked.count(seq)) {
      CountProto<"proto.reorder_dropped">();
      return;  // unacked: the sender will retransmit
    }
    channel.parked.emplace(seq, msg);
    SendAck(key, seq, channel.next_seq);
    return;
  }
  // Ack before delivering, counting the parked successors this arrival
  // releases.
  uint64_t next_expected = seq + 1;
  while (channel.parked.count(next_expected)) ++next_expected;
  SendAck(key, seq, next_expected);
  channel.next_seq = seq + 1;
  deliver_(msg);
  // Drain any parked successors now in order.  `channel` stays valid:
  // recv_channels_ is a std::map and nothing erases from it.
  auto parked = channel.parked.find(channel.next_seq);
  while (parked != channel.parked.end()) {
    Message queued = std::move(parked->second);
    channel.parked.erase(parked);
    channel.next_seq += 1;
    deliver_(queued);
    parked = channel.parked.find(channel.next_seq);
  }
}

void ReliableLink::EndSession(SessionId session) {
  ended_sessions_.insert(session);
  for (auto it = send_channels_.lower_bound(ChannelKey{session, 0, 0, ""});
       it != send_channels_.end() && std::get<0>(it->first) == session;
       ++it) {
    Disarm(&it->second);
  }
}

void ReliableLink::CancelSession(SessionId session) {
  for (auto it = send_channels_.lower_bound(ChannelKey{session, 0, 0, ""});
       it != send_channels_.end() && std::get<0>(it->first) == session;
       ++it) {
    Disarm(&it->second);
    it->second.sends.clear();
  }
}

}  // namespace hyperion
