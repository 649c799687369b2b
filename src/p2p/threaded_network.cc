#include "p2p/threaded_network.h"

#include <chrono>

#include "obs/metrics.h"

namespace hyperion {

ThreadedNetwork::~ThreadedNetwork() {
  std::vector<PeerWorker*> workers;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    for (auto& [id, worker] : peers_) {
      (void)id;
      worker->cv.NotifyAll();
      workers.push_back(worker.get());
    }
    scheduler_cv_.NotifyAll();
  }
  // Join outside the lock (the exiting threads re-acquire mutex_ on
  // their way out); the PeerWorker allocations are stable and no other
  // thread mutates peers_ during destruction.
  for (PeerWorker* worker : workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if (scheduler_.joinable()) scheduler_.join();
}

Status ThreadedNetwork::RegisterPeer(const std::string& id, Handler handler) {
  if (id.empty()) {
    return Status::InvalidArgument("peer id must be nonempty");
  }
  MutexLock lock(mutex_);
  if (running_) {
    return Status::FailedPrecondition(
        "cannot register peers while the network is running");
  }
  auto worker = std::make_unique<PeerWorker>();
  worker->id = id;
  worker->handler = std::move(handler);
  auto [it, inserted] = peers_.emplace(id, std::move(worker));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("peer '" + id + "' already registered");
  }
  return Status::OK();
}

void ThreadedNetwork::SetFaultPlan(FaultPlan plan) {
  MutexLock lock(mutex_);
  faults_.SetPlan(std::move(plan));
}

void ThreadedNetwork::DecrementOutstanding() {
  if (--outstanding_ == 0) quiescent_cv_.NotifyAll();
}

Status ThreadedNetwork::Send(Message msg) {
  size_t bytes = msg.ByteSize();
  MutexLock lock(mutex_);
  auto it = peers_.find(msg.to);
  if (it == peers_.end()) {
    return Status::NotFound("unknown destination peer '" + msg.to + "'");
  }
  RecordNetworkSend("threaded", msg, bytes);
  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  stats_.messages_by_type[msg.TypeName()] += 1;

  FaultInjector::SendDecision decision =
      faults_.OnSend(msg.from, msg.to, now_us());
  if (decision.dropped) {
    stats_.drops_injected += 1;
    RecordFaultEvent("net.drops_injected", "threaded");
    return Status::OK();
  }
  const size_t copies = decision.copy_jitter_us.size();
  if (copies > 1) {
    stats_.duplicates_injected += copies - 1;
    RecordFaultEvent("net.duplicates_injected", "threaded");
  }
  for (size_t i = 0; i < copies; ++i) {
    Message copy = (i + 1 == copies) ? std::move(msg) : msg;
    int64_t jitter = decision.copy_jitter_us[i];
    ++outstanding_;
    if (jitter > 0) {
      // Delayed copies ride the scheduler, then rejoin the worker queue.
      PendingEntry entry;
      entry.peer = copy.to;
      entry.msg = std::move(copy);
      entry.is_message = true;
      pending_.emplace(now_us() + jitter, std::move(entry));
      scheduler_cv_.NotifyAll();
    } else {
      QueuedMessage queued;
      queued.msg = std::move(copy);
      queued.enqueued_us = now_us();
      it->second->queue.push_back(std::move(queued));
      it->second->cv.NotifyOne();
    }
  }
  return Status::OK();
}

Result<Network::TimerId> ThreadedNetwork::ScheduleTimer(
    const std::string& peer, int64_t delay_us, TimerCallback cb) {
  MutexLock lock(mutex_);
  if (!peers_.count(peer)) {
    return Status::NotFound("unknown timer peer '" + peer + "'");
  }
  if (delay_us < 0) {
    return Status::InvalidArgument("timer delay must be >= 0");
  }
  PendingEntry entry;
  entry.id = next_timer_id_++;
  entry.peer = peer;
  entry.cb = std::move(cb);
  TimerId id = entry.id;
  const int64_t due = now_us() + delay_us;
  live_timers_.emplace(id, due);
  ++outstanding_;
  pending_.emplace(due, std::move(entry));
  scheduler_cv_.NotifyAll();
  return id;
}

void ThreadedNetwork::CancelTimer(TimerId id) {
  if (id == 0) return;
  MutexLock lock(mutex_);
  auto live = live_timers_.find(id);
  if (live == live_timers_.end()) return;  // ran, cancelled, or never was
  // Only entries due at the timer's own instant can be it.
  for (auto [it, last] = pending_.equal_range(live->second); it != last;
       ++it) {
    if (it->second.id == id) {
      pending_.erase(it);
      DecrementOutstanding();
      break;
    }
  }
  // A timer already on its worker's queue is skipped there once its id
  // is no longer live.
  live_timers_.erase(live);
}

void ThreadedNetwork::SchedulerLoop() {
  MutexLock lock(mutex_);
  while (true) {
    if (stopping_) return;
    if (pending_.empty()) {
      scheduler_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
        return stopping_ || !pending_.empty();
      });
      continue;
    }
    int64_t due = pending_.begin()->first;
    if (now_us() < due) {
      // Notified-vs-timeout is irrelevant: the loop re-derives the due
      // list from scratch either way.
      const bool notified = scheduler_cv_.WaitUntil(
          mutex_, epoch_ + std::chrono::microseconds(due));
      (void)notified;
      continue;  // re-evaluate: earlier timer, cancellation, or stop
    }
    while (!pending_.empty() && pending_.begin()->first <= now_us()) {
      PendingEntry entry = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      auto it = peers_.find(entry.peer);
      if (it == peers_.end()) {  // unregistered peers are checked earlier
        DecrementOutstanding();
        continue;
      }
      QueuedMessage queued;
      queued.enqueued_us = now_us();
      if (entry.is_message) {
        queued.msg = std::move(entry.msg);
      } else {
        queued.timer_id = entry.id;
        queued.timer_cb = std::move(entry.cb);
      }
      it->second->queue.push_back(std::move(queued));
      it->second->cv.NotifyOne();
      // outstanding_ carries over from the pending entry to the queue
      // entry, so quiescence still waits for it.
    }
  }
}

void ThreadedNetwork::WorkerLoop(PeerWorker* worker) {
  [[maybe_unused]] obs::Histogram* queue_wait_us = nullptr;
  [[maybe_unused]] obs::Histogram* queue_depth = nullptr;
  [[maybe_unused]] obs::Histogram* handler_us = nullptr;
  if constexpr (obs::kMetricsEnabled) {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    queue_wait_us = reg.GetHistogram("threaded.queue_wait_us",
                                     obs::LatencyBoundsUs());
    queue_depth = reg.GetHistogram("threaded.queue_depth",
                                   obs::SizeBounds());
    handler_us = reg.GetHistogram("threaded.handler_us",
                                  obs::LatencyBoundsUs());
  }
  MutexLock lock(mutex_);
  while (true) {
    worker->cv.Wait(mutex_, [&]() REQUIRES(mutex_) {
      return stopping_ || !worker->queue.empty();
    });
    if (worker->queue.empty()) {
      if (stopping_) return;
      continue;
    }
    if constexpr (obs::kMetricsEnabled) {
      queue_depth->Observe(static_cast<int64_t>(worker->queue.size()));
    }
    QueuedMessage queued = std::move(worker->queue.front());
    worker->queue.pop_front();
    if (faults_.PeerDownAt(worker->id, now_us())) {
      stats_.crash_discards += 1;
      RecordFaultEvent("net.crash_discards", "threaded");
      live_timers_.erase(queued.timer_id);
      DecrementOutstanding();
      continue;
    }
    if (queued.timer_id != 0) {
      if (live_timers_.erase(queued.timer_id) == 0) {  // cancelled
        DecrementOutstanding();
        continue;
      }
      stats_.timers_fired += 1;
      lock.Unlock();
      queued.timer_cb();  // may Send()/ScheduleTimer(), re-locking mutex_
      lock.Lock();
      DecrementOutstanding();
      continue;
    }
    lock.Unlock();
    int64_t start_us = now_us();
    if constexpr (obs::kMetricsEnabled) {
      queue_wait_us->Observe(start_us - queued.enqueued_us);
    }
    worker->handler(queued.msg);  // may Send(), re-locking mutex_
    if constexpr (obs::kMetricsEnabled) {
      handler_us->Observe(now_us() - start_us);
    }
    lock.Lock();
    DecrementOutstanding();
  }
}

Result<int64_t> ThreadedNetwork::Run() {
  auto start = std::chrono::steady_clock::now();
  // Snapshot the worker set under the lock (-Wthread-safety caught the
  // old unlocked peers_ walks here).  The PeerWorker allocations are
  // stable, and RegisterPeer refuses while running_, so the snapshot
  // stays valid for the whole run.
  std::vector<PeerWorker*> workers;
  {
    MutexLock lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition("Run() is not reentrant");
    }
    running_ = true;
    stopping_ = false;
    workers.reserve(peers_.size());
    for (auto& [id, worker] : peers_) {
      (void)id;
      workers.push_back(worker.get());
    }
  }
  for (PeerWorker* worker : workers) {
    worker->thread = std::thread([this, worker] { WorkerLoop(worker); });
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  {
    MutexLock lock(mutex_);
    quiescent_cv_.Wait(mutex_,
                       [this]() REQUIRES(mutex_) { return outstanding_ == 0; });
    stopping_ = true;
    for (PeerWorker* worker : workers) {
      worker->cv.NotifyAll();
    }
    scheduler_cv_.NotifyAll();
  }
  for (PeerWorker* worker : workers) {
    worker->thread.join();
    worker->thread = std::thread();
  }
  scheduler_.join();
  scheduler_ = std::thread();
  {
    MutexLock lock(mutex_);
    running_ = false;
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t ThreadedNetwork::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

NetworkStats ThreadedNetwork::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void ThreadedNetwork::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = NetworkStats();
}

}  // namespace hyperion
