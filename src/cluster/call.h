// CallTable: the cluster's one request engine.
//
// Every request/reply exchange a cluster node starts — a coordinator's
// shard fetches and write fan-out, a storage node's anti-entropy and
// handoff pulls — is a *call*: a conversation with a list of candidate
// peers that the table drives to exactly one outcome.  The table
//
//  * mints every request id the node sends,
//  * routes every reply through one Deliver(request_id, msg), and
//  * advances each call only on Network::ScheduleTimer and
//    Network::now_us() — no wall clock, no thread of its own, so the
//    same code runs on TcpNetwork and, replayably, on SimNetwork.
//
// A call's policy (CallSpec):
//
//  * attempts walk the candidates round-robin for `rounds` passes; an
//    attempt fails when it times out, its send fails, or `accept`
//    refuses its reply, and the next candidate is asked at once;
//  * after each failed full round the call pauses backoff_us, doubled
//    per round;
//  * with hedge_us > 0 and more than one candidate, one extra attempt
//    goes to the next candidate hedge_us after an attempt was sent,
//    without giving up on the first;
//  * deadline_us bounds the whole call;
//  * the late-reply rule: by default a reply to ANY attempt of the call
//    answers it; `latest_only` drops replies to superseded attempts.
//
// Outcomes: kReplied (the first accepted reply), kExhausted (every
// attempt failed), kDeadline, or kAborted (Stop(), or a timer the network
// refused — both name the node and the call's phase).  A call with
// `rounds` 0 sends nothing: it is a pure timer that ends at its deadline.
//
// Threading: Start() is callable from any thread; Deliver() and the
// timers run on the network's handler thread.  A blocking caller waits
// for its calls on a CallWaiter, which lets the network pick the wait:
// a condition variable on tcp, dispatching the simulation on sim.  The
// table's mutex is a leaf (DESIGN.md §12): it is never held across
// Send(), ScheduleTimer(), CancelTimer() or a user callback — except
// `accept`, which runs under it and so must only inspect the reply.

#ifndef HYPERION_CLUSTER_CALL_H_
#define HYPERION_CLUSTER_CALL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"

namespace hyperion {
namespace cluster {

/// \brief How a call ended.
enum class CallEnd { kReplied, kExhausted, kDeadline, kAborted };

/// \brief What a finished call hands its `done` callback.
struct CallOutcome {
  CallEnd end = CallEnd::kAborted;
  Status status;                   // OK iff kReplied
  Message reply;                   // the accepted reply (kReplied only)
  int attempts = 0;                // requests sent
  std::vector<std::string> tried;  // distinct peers asked, in order
};

/// \brief One attempt about to be sent, for the caller's metrics/traces.
struct CallAttempt {
  std::string peer;
  int number = 0;  // 1-based; attempt k goes to candidates[(k-1) % size]
  bool hedge = false;
};

/// \brief A call's candidates, retry policy and callbacks.
struct CallSpec {
  std::string phase;  // names the call in errors ("shard fetch t#0")
  std::string key;    // optional; see CallTable::Busy
  std::vector<std::string> candidates;
  int rounds = 1;                  // passes over the candidates
  int64_t attempt_timeout_us = 0;  // per attempt; 0 = until the deadline
  int64_t backoff_us = 0;          // pause after round k: backoff << (k-1)
  int64_t hedge_us = 0;            // 0 = no hedge
  int64_t deadline_us = 0;         // whole call from Start; 0 = none
  bool latest_only = false;        // late-reply rule
  /// Builds the request for one attempt.
  std::function<Message(uint64_t request_id, const std::string& peer)>
      request;
  /// False refuses a reply: its attempt fails.  Null accepts every reply.
  std::function<bool(const Message& reply)> accept;
  std::function<void(const CallAttempt&)> on_attempt;  // optional
  std::function<void(CallOutcome)> done;  // optional
};

class CallWaiter;

/// \brief Per-node table of live calls.
class CallTable {
 public:
  using CallId = uint64_t;

  /// \brief Requests go out from `self`, which must be registered on
  /// `net`; `net` must outlive the table.
  CallTable(std::string self, Network* net);

  /// \brief Starts a call and sends its first attempt.  After Stop() the
  /// call ends at once as kAborted.
  CallId Start(CallSpec spec);

  /// \brief Routes a reply to the call that sent `request_id`.  Returns
  /// false when no live call claims it: the call finished or was
  /// cancelled, or — under latest_only — the attempt was superseded.
  bool Deliver(uint64_t request_id, const Message& msg);

  /// \brief Drops a live call without running its `done`.
  void Cancel(CallId id);

  /// \brief Whether a live call was started with `key`.  Callers that
  /// keep one call per key (a shard pull) check this before Start.
  bool Busy(const std::string& key) const;

  /// \brief Ends every live call as kAborted with kUnavailable, naming
  /// this node and the call's phase, and aborts every later Start.
  void Stop();

  const std::string& self() const { return self_; }
  int64_t now_us() const { return net_->now_us(); }

  /// \brief A waiter for `calls` outcomes of calls on this table.
  std::shared_ptr<CallWaiter> Waiter(size_t calls) const;

 private:
  struct Call {
    std::shared_ptr<const CallSpec> spec;  // callbacks run without mu_
    int attempts = 0;
    bool in_flight = false;
    bool failed = false;  // the in-flight attempt failed before timing out
    bool hedged = false;
    int64_t sent_us = 0;      // latest attempt
    int64_t gate_us = 0;      // backoff: no attempt before this
    int64_t deadline_at = 0;  // absolute
    std::vector<uint64_t> requests;  // one per attempt, in order
    Network::TimerId timer = 0;      // the one armed timer (0 = none)
    int64_t wake_at = INT64_MAX;     // when it fires
  };

  // Re-derives what call `id` must do now — fail an expired or refused
  // attempt, send, hedge or finish — does it, and re-arms the call's
  // timer.  `fired_at` is the wake time of the timer that ran it (0 when
  // something else did).
  void Step(CallId id, int64_t fired_at);
  // Arms the call's timer for absolute time `at`.  A timer the network
  // refuses aborts the call (returns false).
  bool Arm(CallId id, int64_t at, int64_t now);
  // Removes `id` and runs its `done`; `why` explains a kAborted end.
  void Finish(CallId id, CallEnd end, const std::string& why = "",
              const Message* reply = nullptr);
  // Unlinks `id` and its request ids and cancels its timer.
  std::optional<Call> Remove(CallId id);

  const std::string self_;
  Network* const net_;

  mutable Mutex mu_;
  bool stopped_ GUARDED_BY(mu_) = false;
  CallId next_call_ GUARDED_BY(mu_) = 1;
  uint64_t next_request_ GUARDED_BY(mu_) = 1;
  std::map<CallId, Call> calls_ GUARDED_BY(mu_);
  std::map<uint64_t, CallId> by_request_ GUARDED_BY(mu_);
};

/// \brief Where a blocking caller (Fetch, Apply) collects the outcomes
/// of the calls it started.  `done` callbacks may run after the caller
/// gave up, so the waiter lives in a shared_ptr they capture.
class CallWaiter {
 public:
  /// \brief Waits on `net`, the network the calls run on.
  CallWaiter(Network* net, size_t calls) : net_(net), results_(calls) {}

  /// \brief A `done` callback recording call `i`'s outcome.
  static std::function<void(CallOutcome)> Recorder(
      std::shared_ptr<CallWaiter> self, size_t i);

  /// \brief Wakes Wait() without an outcome (e.g. a quorum that depends
  /// on membership must be re-checked).
  void Poke();

  /// \brief Returns once an outcome was recorded or Poke() ran since the
  /// previous Wait() returned.  One waiting thread only, and never a
  /// handler of the network.  The network decides how to wait
  /// (Network::Await): tcp blocks on a condition variable its loop
  /// thread signals; sim dispatches events on this thread until then,
  /// and fails if it drains first.
  Status Wait();

  /// \brief Call `i`'s outcome, moved out on the first Take after it
  /// ended (nullopt while it runs, and once taken).
  std::optional<CallOutcome> Take(size_t i);

 private:
  Network* const net_;
  Mutex mu_;
  CondVar cv_;
  uint64_t events_ GUARDED_BY(mu_) = 0;
  uint64_t seen_ GUARDED_BY(mu_) = 0;
  std::vector<std::optional<CallOutcome>> results_ GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_CALL_H_
