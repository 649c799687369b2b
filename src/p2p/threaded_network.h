// ThreadedNetwork: one worker thread per peer, real queues, wall-clock
// time — the peer protocol running under true concurrency, as it would on
// the paper's geographically distributed deployment.
//
// Concurrency contract: a peer's handler runs only on that peer's worker
// thread, one message at a time, so per-peer state needs no locking (the
// same invariant the single-threaded simulator provides).  Send() may be
// called from any thread.  Run() drives the network to quiescence: it
// returns once every queued message, every message those handlers sent,
// and every pending timer has been fully processed or cancelled.
//
// Timers (ScheduleTimer) and fault-jittered deliveries are driven by a
// scheduler thread that Run() spawns alongside the workers; when due they
// are routed through the target peer's worker queue, preserving the
// one-handler-at-a-time invariant.  Fault decisions (drop / duplicate /
// jitter) are drawn from the same seeded FaultInjector the simulator
// uses, though thread interleaving makes the draw *sequence* — and hence
// the exact outcome — nondeterministic here.

#ifndef HYPERION_P2P_THREADED_NETWORK_H_
#define HYPERION_P2P_THREADED_NETWORK_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "p2p/fault.h"
#include "p2p/network_interface.h"

namespace hyperion {

/// \brief Real-thread transport.  Not copyable; Run() is not reentrant.
class ThreadedNetwork : public Network {
 public:
  ThreadedNetwork() = default;
  ~ThreadedNetwork() override;

  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  Status RegisterPeer(const std::string& id, Handler handler) override;

  /// \brief Thread-safe; callable before Run() and from inside handlers.
  /// With a FaultPlan installed the message may be dropped, duplicated
  /// or delayed here.
  Status Send(Message msg) override;

  /// \brief Schedules `cb` on `peer`'s worker after `delay_us` of wall
  /// time.  A pending timer counts against quiescence, so Run() does not
  /// return while one is outstanding — cancel timers you no longer need.
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override;

  void CancelTimer(TimerId id) override;

  /// \brief Installs the fault plan.  Applies to sends issued after the
  /// call; thread-safe.
  void SetFaultPlan(FaultPlan plan) override;

  /// \brief Spawns the workers and the timer scheduler, waits for
  /// quiescence (no queued messages, no in-flight handlers, no pending
  /// timers), stops them, and returns elapsed wall µs.
  Result<int64_t> Run();

  /// \brief Wall-clock µs since this network was constructed.
  int64_t now_us() const override;

  /// \brief No-op: time is real here.
  void ChargeCompute(int64_t micros) override { (void)micros; }

  NetworkStats stats() const override;
  void ResetStats() override;

 private:
  struct QueuedMessage {
    Message msg;
    int64_t enqueued_us = 0;  // wall, for queue-wait accounting
    // Timer entries: run `timer_cb` instead of delivering `msg`.
    TimerId timer_id = 0;  // 0 = message entry
    TimerCallback timer_cb;
  };
  struct PeerWorker {
    std::string id;
    Handler handler;
    // Guarded by the owning ThreadedNetwork's mutex_.  (Thread safety
    // annotations cannot express a nested struct's field being guarded
    // by the enclosing object's mutex — there is no instance path from
    // PeerWorker to the network — so this one invariant stays a comment;
    // every access in threaded_network.cc happens inside a MutexLock.)
    std::deque<QueuedMessage> queue;
    CondVar cv;
    // Owned by the single thread driving Run() (and the destructor):
    // spawned after registration closes, joined before Run returns.
    std::thread thread;
  };
  // A not-yet-due timer or fault-delayed message delivery, held by the
  // scheduler until `due_us`, then moved onto the peer's worker queue.
  struct PendingEntry {
    TimerId id = 0;  // 0 for delayed message deliveries
    std::string peer;
    TimerCallback cb;
    Message msg;
    bool is_message = false;
  };

  void WorkerLoop(PeerWorker* worker);
  void SchedulerLoop();
  void DecrementOutstanding() REQUIRES(mutex_);

  mutable Mutex mutex_;
  // The map's *shape* is guarded: registration mutates it under mutex_
  // and refuses while running_.  Run() snapshots the stable PeerWorker
  // pointers under the lock before spawning/joining their threads.
  std::map<std::string, std::unique_ptr<PeerWorker>> peers_
      GUARDED_BY(mutex_);
  CondVar quiescent_cv_;
  // Queued + currently-handled messages + pending/not-yet-run timers.
  int64_t outstanding_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
  bool running_ GUARDED_BY(mutex_) = false;
  NetworkStats stats_ GUARDED_BY(mutex_);

  FaultInjector faults_ GUARDED_BY(mutex_);
  std::multimap<int64_t, PendingEntry> pending_
      GUARDED_BY(mutex_);  // keyed by due wall µs
  CondVar scheduler_cv_;
  std::thread scheduler_;  // owned by the thread driving Run()
  TimerId next_timer_id_ GUARDED_BY(mutex_) = 1;
  // Timers that have neither run nor been cancelled (pending or on a
  // worker queue), with their due time (their pending_ key).
  std::map<TimerId, int64_t> live_timers_ GUARDED_BY(mutex_);

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace hyperion

#endif  // HYPERION_P2P_THREADED_NETWORK_H_
