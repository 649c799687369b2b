#include "cluster/call.h"

#include <algorithm>
#include <utility>

namespace hyperion {
namespace cluster {

namespace {

constexpr int64_t kNever = INT64_MAX;

const std::string& PeerOf(const CallSpec& spec, int attempt) {
  return spec.candidates[attempt % spec.candidates.size()];
}

bool HedgeDue(const CallSpec& spec, int attempts, bool hedged) {
  const int total = spec.rounds * static_cast<int>(spec.candidates.size());
  return spec.hedge_us > 0 && !hedged && spec.candidates.size() > 1 &&
         attempts < total;
}

}  // namespace

CallTable::CallTable(std::string self, Network* net)
    : self_(std::move(self)), net_(net) {}

CallTable::CallId CallTable::Start(CallSpec spec) {
  const int64_t now = net_->now_us();
  CallId id;
  bool stopped;
  {
    MutexLock lock(mu_);
    id = next_call_++;
    stopped = stopped_;
    Call& call = calls_[id];
    call.deadline_at = spec.deadline_us > 0 ? now + spec.deadline_us : kNever;
    call.spec = std::make_shared<const CallSpec>(std::move(spec));
  }
  if (stopped) {
    Finish(id, CallEnd::kAborted, "stopped");
  } else {
    Step(id, 0);
  }
  return id;
}

void CallTable::Step(CallId id, int64_t fired_at) {
  const int64_t now = net_->now_us();
  std::shared_ptr<const CallSpec> spec;
  std::optional<CallEnd> end;
  uint64_t request_id = 0;
  CallAttempt attempt;
  Network::TimerId stale = 0;
  int64_t wake_at = kNever;
  {
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    if (it == calls_.end()) return;
    Call& call = it->second;
    if (fired_at == call.wake_at) {
      call.timer = 0;
      call.wake_at = kNever;
    }
    spec = call.spec;
    const int n = static_cast<int>(spec->candidates.size());
    const int total = spec->rounds * n;
    if (now >= call.deadline_at) {
      end = CallEnd::kDeadline;
    } else {
      if (call.in_flight &&
          (call.failed || (spec->attempt_timeout_us > 0 &&
                           now >= call.sent_us + spec->attempt_timeout_us))) {
        call.in_flight = call.failed = false;
        call.gate_us = now;
        if (call.attempts % n == 0 && call.attempts < total) {
          // A full round failed: back off, doubling per round.
          call.gate_us += spec->backoff_us << (call.attempts / n - 1);
        }
      }
      if (!call.in_flight) {
        if (call.attempts >= total) {
          if (spec->rounds > 0) end = CallEnd::kExhausted;
        } else if (now >= call.gate_us) {
          request_id = next_request_++;
        }
      } else if (HedgeDue(*spec, call.attempts, call.hedged) &&
                 now >= call.sent_us + spec->hedge_us) {
        request_id = next_request_++;
        attempt.hedge = call.hedged = true;
      }
    }
    if (request_id != 0) {
      by_request_[request_id] = id;
      call.requests.push_back(request_id);
      attempt.peer = PeerOf(*spec, call.attempts);
      attempt.number = ++call.attempts;
      call.in_flight = true;
      call.sent_us = now;
    }
    if (!end.has_value()) {
      // The call keeps one timer armed, for the soonest of its deadline,
      // attempt expiry, hedge and backoff gate.
      int64_t next = call.deadline_at;
      if (call.in_flight && spec->attempt_timeout_us > 0) {
        next = std::min(next, call.sent_us + spec->attempt_timeout_us);
      }
      if (call.in_flight && HedgeDue(*spec, call.attempts, call.hedged)) {
        next = std::min(next, call.sent_us + spec->hedge_us);
      }
      if (!call.in_flight && call.gate_us > now) {
        next = std::min(next, call.gate_us);
      }
      if (next != call.wake_at) {
        stale = call.timer;
        call.timer = 0;
        call.wake_at = wake_at = next;
      }
    }
  }
  if (end.has_value()) return Finish(id, *end);
  if (stale != 0) net_->CancelTimer(stale);
  if (wake_at != kNever && !Arm(id, wake_at, now)) return;
  if (request_id == 0) return;
  if (spec->on_attempt) spec->on_attempt(attempt);
  if (net_->Send(spec->request(request_id, attempt.peer)).ok()) return;
  {
    // A send that fails (no route) fails its attempt at once.
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    if (it == calls_.end() || !it->second.in_flight ||
        it->second.requests.back() != request_id) {
      return;
    }
    it->second.failed = true;
  }
  Step(id, 0);
}

bool CallTable::Deliver(uint64_t request_id, const Message& msg) {
  CallId id;
  bool refused = false;
  {
    MutexLock lock(mu_);
    auto it = by_request_.find(request_id);
    if (it == by_request_.end()) return false;
    id = it->second;
    Call& call = calls_.at(id);
    const bool latest = call.requests.back() == request_id;
    if (call.spec->latest_only && !latest) return false;
    if (call.spec->accept && !call.spec->accept(msg)) {
      // A refusal fails the attempt it answers — unless a newer attempt
      // already superseded that one.
      if (!latest || !call.in_flight) return true;
      refused = call.failed = true;
    }
  }
  if (refused) {
    Step(id, 0);
  } else {
    Finish(id, CallEnd::kReplied, "", &msg);
  }
  return true;
}

bool CallTable::Arm(CallId id, int64_t at, int64_t now) {
  auto timer =
      net_->ScheduleTimer(self_, at - now, [this, id, at] { Step(id, at); });
  if (!timer.ok()) {
    Finish(id, CallEnd::kAborted,
           "cannot arm a timer (" + timer.status().ToString() + ")");
    return false;
  }
  bool current;
  {
    // A concurrent Step may have moved the wake time meanwhile.
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    current = it != calls_.end() && it->second.wake_at == at &&
              it->second.timer == 0;
    if (current) it->second.timer = timer.value();
  }
  if (!current) net_->CancelTimer(timer.value());
  return true;
}

std::optional<CallTable::Call> CallTable::Remove(CallId id) {
  std::optional<Call> call;
  {
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    if (it == calls_.end()) return std::nullopt;
    call = std::move(it->second);
    calls_.erase(it);
    for (uint64_t request : call->requests) by_request_.erase(request);
  }
  if (call->timer != 0) net_->CancelTimer(call->timer);
  return call;
}

void CallTable::Finish(CallId id, CallEnd end, const std::string& why,
                       const Message* reply) {
  std::optional<Call> call = Remove(id);
  if (!call.has_value() || !call->spec->done) return;
  const CallSpec& spec = *call->spec;
  CallOutcome out;
  out.end = end;
  if (reply != nullptr) out.reply = *reply;
  out.attempts = call->attempts;
  const int asked = std::min<int>(call->attempts, spec.candidates.size());
  out.tried.assign(spec.candidates.begin(), spec.candidates.begin() + asked);
  std::string tried;
  for (const std::string& peer : out.tried) {
    tried.append(tried.empty() ? ": tried '" : ", '").append(peer).append("'");
  }
  if (end == CallEnd::kExhausted) {
    out.status = Status::Unavailable(spec.phase + " exhausted after " +
                                     std::to_string(out.attempts) +
                                     " attempts" + tried);
  } else if (end == CallEnd::kDeadline) {
    out.status = Status::Unavailable(
        spec.phase + " got no reply within " +
        std::to_string(spec.deadline_us / 1000) + "ms" + tried);
  } else if (end == CallEnd::kAborted) {
    out.status = Status::Unavailable("node '" + self_ + "' " + why +
                                     " during " + spec.phase);
  }
  spec.done(std::move(out));
}

void CallTable::Cancel(CallId id) { Remove(id); }

std::shared_ptr<CallWaiter> CallTable::Waiter(size_t calls) const {
  return std::make_shared<CallWaiter>(net_, calls);
}

bool CallTable::Busy(const std::string& key) const {
  MutexLock lock(mu_);
  for (const auto& [id, call] : calls_) {
    if (call.spec->key == key) return true;
  }
  return false;
}

void CallTable::Stop() {
  std::vector<CallId> live;
  {
    MutexLock lock(mu_);
    stopped_ = true;
    for (const auto& [id, call] : calls_) live.push_back(id);
  }
  for (CallId id : live) Finish(id, CallEnd::kAborted, "stopped");
}

// ---- CallWaiter ----------------------------------------------------------

std::function<void(CallOutcome)> CallWaiter::Recorder(
    std::shared_ptr<CallWaiter> self, size_t i) {
  return [self = std::move(self), i](CallOutcome out) {
    MutexLock lock(self->mu_);
    self->results_[i] = std::move(out);
    ++self->events_;
    self->cv_.NotifyAll();
  };
}

void CallWaiter::Poke() {
  MutexLock lock(mu_);
  ++events_;
  cv_.NotifyAll();
}

Status CallWaiter::Wait() {
  // mu_ is a leaf: it is released while the network dispatches, since
  // the handlers that record outcomes take it.
  HYP_RETURN_IF_ERROR(net_->Await(
      [this] {
        MutexLock lock(mu_);
        return events_ != seen_;
      },
      [this] {
        MutexLock lock(mu_);
        cv_.Wait(mu_, [this]() REQUIRES(mu_) { return events_ != seen_; });
      }));
  MutexLock lock(mu_);
  seen_ = events_;
  return Status::OK();
}

std::optional<CallOutcome> CallWaiter::Take(size_t i) {
  MutexLock lock(mu_);
  std::optional<CallOutcome> taken;
  taken.swap(results_[i]);
  return taken;
}

}  // namespace cluster
}  // namespace hyperion
