#include "p2p/network.h"

#include <chrono>

#include "obs/metrics.h"

namespace hyperion {

namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SimNetwork::SimNetwork() : options_(Options()) {}

Status SimNetwork::RegisterPeer(const std::string& id, Handler handler) {
  if (id.empty()) {
    return Status::InvalidArgument("peer id must be nonempty");
  }
  auto [it, inserted] = peers_.emplace(id, std::move(handler));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("peer '" + id + "' already registered");
  }
  busy_until_[id] = 0;
  return Status::OK();
}

int64_t SimNetwork::CurrentComputeMicros() const {
  int64_t measured_us =
      (WallNowNs() - handler_wall_start_ns_) / 1000;
  return static_cast<int64_t>(
             static_cast<double>(measured_us) * options_.compute_scale) +
         handler_extra_charge_us_;
}

int64_t SimNetwork::now_us() const {
  if (in_handler_) return handler_start_us_ + CurrentComputeMicros();
  return clock_us_;
}

void SimNetwork::ChargeCompute(int64_t micros) {
  if (in_handler_) handler_extra_charge_us_ += micros;
}

void SimNetwork::SetFaultPlan(FaultPlan plan) {
  faults_.SetPlan(std::move(plan));
}

Status SimNetwork::Send(Message msg) {
  if (!peers_.count(msg.to)) {
    return Status::NotFound("unknown destination peer '" + msg.to + "'");
  }
  size_t bytes = msg.ByteSize();
  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  stats_.messages_by_type[msg.TypeName()] += 1;
  RecordNetworkSend<"sim">(msg, bytes);

  int64_t depart = now_us();
  FaultInjector::SendDecision decision =
      faults_.OnSend(msg.from, msg.to, depart);
  if (decision.dropped) {
    stats_.drops_injected += 1;
    RecordFaultEvent("net.drops_injected", "sim");
    return Status::OK();  // the sender cannot tell — that is the point
  }
  if (decision.copy_jitter_us.size() > 1) {
    stats_.duplicates_injected += decision.copy_jitter_us.size() - 1;
    RecordFaultEvent("net.duplicates_injected", "sim");
  }

  int64_t latency = options_.latency_us;
  auto link_it = options_.link_latency_us.find({msg.from, msg.to});
  if (link_it != options_.link_latency_us.end()) latency = link_it->second;
  int64_t base_arrival =
      depart + latency +
      static_cast<int64_t>(static_cast<double>(bytes) * options_.us_per_byte);
  const size_t copies = decision.copy_jitter_us.size();
  for (size_t i = 0; i < copies; ++i) {
    int64_t arrival = base_arrival + decision.copy_jitter_us[i];
    if (!faults_.active()) {
      // Keep per-link FIFO order in the fault-free simulation; fault
      // jitter exists precisely to break it.
      auto link = std::make_pair(msg.from, msg.to);
      auto it = last_arrival_.find(link);
      if (it != last_arrival_.end() && arrival <= it->second) {
        arrival = it->second + 1;
      }
      last_arrival_[link] = arrival;
    }
    Event ev;
    ev.time = arrival;
    ev.seq = next_seq_++;
    ev.depart = depart;
    ev.msg = (i + 1 == copies) ? std::move(msg) : msg;
    queue_.push(std::move(ev));
  }
  return Status::OK();
}

Result<Network::TimerId> SimNetwork::ScheduleTimer(const std::string& peer,
                                                   int64_t delay_us,
                                                   TimerCallback cb) {
  if (!peers_.count(peer)) {
    return Status::NotFound("unknown timer peer '" + peer + "'");
  }
  if (delay_us < 0) {
    return Status::InvalidArgument("timer delay must be >= 0");
  }
  Event ev;
  ev.time = now_us() + delay_us;
  ev.seq = next_seq_++;
  ev.depart = ev.time;
  ev.timer_id = next_timer_id_++;
  ev.timer_peer = peer;
  ev.timer_cb = std::move(cb);
  TimerId id = ev.timer_id;
  queue_.push(std::move(ev));
  return id;
}

void SimNetwork::CancelTimer(TimerId id) {
  if (id != 0) cancelled_timers_.insert(id);
}

template <typename Body>
void SimNetwork::RunOnPeer(const std::string& peer, int64_t start,
                           int64_t initial_charge_us, Body&& body) {
  clock_us_ = start;
  in_handler_ = true;
  current_peer_ = peer;
  handler_start_us_ = start;
  handler_wall_start_ns_ = WallNowNs();
  handler_extra_charge_us_ = initial_charge_us;

  body();

  int64_t consumed = CurrentComputeMicros();
  in_handler_ = false;
  busy_until_[peer] = start + consumed;
  clock_us_ = std::max(clock_us_, start + consumed);
  if constexpr (obs::kMetricsEnabled) {
    // Looked up once: this runs on every delivered message.
    static obs::Histogram* const handler_us =
        obs::MetricRegistry::Default().GetHistogram("sim.handler_us",
                                                    obs::LatencyBoundsUs());
    handler_us->Observe(consumed);
  }
}

Result<int64_t> SimNetwork::Run() {
  HYP_RETURN_IF_ERROR(RunUntil(nullptr, kNoDeadline).status());
  return clock_us_;
}

Status SimNetwork::Await(const std::function<bool()>& ready,
                         const std::function<void()>& block) {
  (void)block;
  HYP_ASSIGN_OR_RETURN(bool done, RunUntil(ready, kNoDeadline));
  if (!done) {
    return Status::FailedPrecondition(
        "simulation drained while a caller still waits");
  }
  return Status::OK();
}

Result<bool> SimNetwork::RunUntil(const std::function<bool()>& pred,
                                  int64_t deadline_us) {
  if (in_handler_) {
    return Status::FailedPrecondition(
        "cannot run the simulation from inside a handler of peer '" +
        current_peer_ + "'");
  }
  auto done = [&pred] { return pred != nullptr && pred(); };
  while (!done()) {
    if (queue_.empty() || queue_.top().time > deadline_us) {
      if (deadline_us != kNoDeadline) {
        clock_us_ = std::max(clock_us_, deadline_us);
      }
      return false;
    }
    Event ev = queue_.top();
    queue_.pop();
    if (ev.timer_id != 0) {
      // Cancelled timers drain without advancing the clock or touching
      // the peer's timeline.
      auto cancelled = cancelled_timers_.find(ev.timer_id);
      if (cancelled != cancelled_timers_.end()) {
        cancelled_timers_.erase(cancelled);
        continue;
      }
      if (faults_.PeerDownAt(ev.timer_peer, ev.time)) {
        stats_.crash_discards += 1;
        RecordFaultEvent("net.crash_discards", "sim");
        continue;
      }
      int64_t start = std::max(ev.time, busy_until_[ev.timer_peer]);
      stats_.timers_fired += 1;
      // Timers model local clock expiry: no message was received, so no
      // per-message processing overhead is charged.
      RunOnPeer(ev.timer_peer, start, 0, [&] { ev.timer_cb(); });
      continue;
    }
    if constexpr (obs::kMetricsEnabled) {
      static obs::Histogram* const queue_depth =
          obs::MetricRegistry::Default().GetHistogram("sim.queue_depth",
                                                      obs::SizeBounds());
      queue_depth->Observe(static_cast<int64_t>(queue_.size()) + 1);
    }
    auto peer_it = peers_.find(ev.msg.to);
    if (peer_it == peers_.end()) {
      return Status::Internal("event for unknown peer '" + ev.msg.to + "'");
    }
    if (faults_.PeerDownAt(ev.msg.to, ev.time)) {
      stats_.crash_discards += 1;
      RecordFaultEvent("net.crash_discards", "sim");
      continue;
    }
    int64_t start = std::max(ev.time, busy_until_[ev.msg.to]);
    if constexpr (obs::kMetricsEnabled) {
      // Virtual time from send to processing start: models what the
      // paper's distributed deployment would observe per hop.
      static obs::Histogram* const delivery_us =
          obs::MetricRegistry::Default().GetHistogram(
              "sim.delivery_latency_us", obs::LatencyBoundsUs());
      delivery_us->Observe(start - ev.depart);
    }
    RunOnPeer(ev.msg.to, start, options_.per_message_overhead_us,
              [&] { peer_it->second(ev.msg); });
  }
  return true;
}

}  // namespace hyperion
