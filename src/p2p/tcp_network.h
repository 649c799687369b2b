// TcpNetwork: the Network interface over real POSIX TCP sockets — every
// frame a peer sends crosses the kernel's loopback (or a real NIC when
// peers live in another process), serialized through the wire codec
// (wire.h).  It is the byte pipe between separate processes: the
// service's tcp transport, and every message between cluster nodes
// (src/cluster/).
//
// Topology: every registered peer gets its own listening socket
// (ephemeral port by default; ListenPort() reports it).  Sends open one
// outgoing connection per destination peer on demand — to the local
// listener for peers registered on this instance, or to the address
// named in Options::remote_peers / SetRemotePeer for peers of another
// instance — with exponential reconnect backoff on connect failure.
//
// Concurrency contract: a single event-loop thread owns all sockets and
// runs every handler and timer callback, so handlers for one peer (in
// fact for all peers of this instance) never run concurrently — the
// same invariant SimNetwork provides.  Send() is thread-safe and
// callable from inside handlers; calls made on the loop thread skip the
// wakeup pipe, since the loop rebuilds its poll set after every callback
// anyway.
//
// Quiescence: WaitQuiescent() returns once every frame this instance
// sent has been flushed (remote destinations) or fully handled (local
// destinations), and no timer is pending.  Run() is Start() +
// WaitQuiescent() + Stop().  Frames carry a per-instance origin token
// (wire.h) so a receiver can tell its own in-flight frames — which
// count toward its quiescence — from frames a remote instance sent,
// which do not.  Two-instance setups therefore use Start() +
// RunUntil(predicate) + Stop() instead of Run().
//
// Reuse: a running network can serve one run after another.  At
// quiescence no frame or timer of the last run is left, so DetachPeer()
// then RegisterPeer() swaps a peer's handler while its listener, the
// loop thread and every open connection stay up.  QueryService keeps
// its tcp networks running this way between cover sessions.
//
// Fault injection sits at the socket boundary: the shared FaultInjector
// decides drop/duplicate/jitter per Send before any bytes are staged,
// and crash windows gate delivery (and timers) at the receiving end —
// identical semantics to the other two transports.

#ifndef HYPERION_P2P_TCP_NETWORK_H_
#define HYPERION_P2P_TCP_NETWORK_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
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

/// \brief TCP-specific traffic counters (also exported as net.tcp.* in
/// the default MetricRegistry).
struct TcpStats {
  uint64_t connects = 0;          // connections established
  uint64_t reconnects = 0;        // connect retries after a failure
  uint64_t connect_failures = 0;  // frames abandoned: peer unreachable
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;      // frame bytes handed to the kernel
  uint64_t bytes_received = 0;  // frame bytes read from the kernel
  uint64_t frames_bad = 0;      // undecodable frames (connection dropped)
};

/// \brief Socket transport.  Not copyable; Run() is not reentrant.
class TcpNetwork : public Network {
 public:
  struct Options {
    /// Address the per-peer listeners bind to.
    std::string listen_host = "127.0.0.1";
    /// Port for the first registered peer; 0 = ephemeral (each listener
    /// asks the kernel).  Nonzero values increment per peer.
    uint16_t base_port = 0;
    /// Destinations living in another TcpNetwork instance:
    /// peer id → "host:port" of that instance's listener for the peer.
    std::map<std::string, std::string> remote_peers;
    /// First retry delay after a failed connect; doubles per attempt.
    int64_t reconnect_backoff_us = 10'000;
    int64_t max_reconnect_backoff_us = 500'000;
    /// Connect attempts per connection before the staged frames are
    /// abandoned (the reliability layer sees it as loss).
    int max_connect_attempts = 5;
  };

  TcpNetwork();
  explicit TcpNetwork(Options options);
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// \brief Registers a peer and binds its listening socket immediately
  /// (so ListenPort() is valid before Start()).  Callable while the event
  /// loop runs.  For a detached peer it only installs `handler`: the
  /// listener and connections are the ones kept since DetachPeer().
  Status RegisterPeer(const std::string& id, Handler handler) override;

  /// \brief Removes `id`'s handler but keeps its listener and
  /// connections.  Frames delivered to a detached peer are dropped and
  /// its timers do not fire; both still release their hold on
  /// quiescence.  A handler already running may finish after this
  /// returns, so detach at quiescence before destroying its owner.
  void DetachPeer(const std::string& id);

  /// \brief The port `peer`'s listener is bound to.
  Result<uint16_t> ListenPort(const std::string& peer) const;

  /// \brief Names a peer served by another instance; sends to `id` will
  /// connect to `host_port` ("host:port").  Callable any time.
  void SetRemotePeer(const std::string& id, const std::string& host_port);

  /// \brief Thread-safe; callable before Start() (frames flush once the
  /// loop runs) and from inside handlers.  With a FaultPlan installed
  /// the message may be dropped, duplicated or delayed here — before
  /// any bytes touch a socket.
  Status Send(Message msg) override;

  /// \brief Schedules `cb` on the event loop after `delay_us` of wall
  /// time.  Pending timers count against quiescence — cancel timers you
  /// no longer need.
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override;

  void CancelTimer(TimerId id) override;

  void SetFaultPlan(FaultPlan plan) override;

  /// \brief Spawns the event-loop thread.  No-op when already running.
  Status Start();

  /// \brief Waits (wall-clock bounded) until `pred()` holds, while the
  /// event loop keeps delivering.  Returns the final pred() value.
  /// Requires Start().
  [[nodiscard]] bool RunUntil(const std::function<bool()>& pred,
                              int64_t timeout_us);

  /// \brief Stops the event loop: waits up to `drain_timeout_us` for
  /// quiescence, then joins the thread and closes every connection
  /// (listeners stay bound for a later Start()).
  void Stop(int64_t drain_timeout_us = 2'000'000);

  /// \brief Waits until quiescent (see above), or until Stop() begins,
  /// and leaves the loop running.  Requires Start().
  Status WaitQuiescent();

  /// \brief Start() + WaitQuiescent() + Stop().  Returns elapsed wall
  /// µs.  The wall-clock equivalent of SimNetwork::Run.
  Result<int64_t> Run();

  /// \brief Wall-clock µs since this network was constructed.
  int64_t now_us() const override;

  /// \brief No-op: time is real here.
  void ChargeCompute(int64_t micros) override { (void)micros; }

  NetworkStats stats() const override;
  void ResetStats() override;

  TcpStats tcp_stats() const;

 private:
  struct PeerState {
    std::string id;
    Handler handler;
    int listen_fd = -1;
    uint16_t port = 0;
  };
  // One staged outbound frame; `counted` means outstanding_ was
  // incremented for it and must be released exactly once — on abandon,
  // on flush (remote destination), or after the handler runs (local
  // destination, tracked via the origin token on the frame itself).
  struct OutFrame {
    std::string bytes;
    size_t offset = 0;  // bytes already written
    bool local_dest = false;
    bool counted = false;
  };
  // Outgoing connection to one destination peer.
  struct OutConn {
    std::string dest;
    int fd = -1;
    bool connecting = false;
    int attempts = 0;
    int64_t next_attempt_us = 0;
    std::deque<OutFrame> queue;
  };
  // Accepted connection feeding one local peer's listener.
  struct InConn {
    int fd = -1;
    std::string peer;  // local peer the listener belongs to
    std::string inbuf;
  };
  // A not-yet-due timer or jitter-delayed frame.
  struct PendingEntry {
    TimerId id = 0;  // 0 for delayed frames
    std::string peer;
    TimerCallback cb;
    // Delayed frame: re-staged onto `peer`'s out-connection when due.
    std::string frame;
    bool is_frame = false;
    bool local_dest = false;
  };
  struct Delivery {
    std::string peer;
    Message msg;
    bool counted = false;  // origin token was ours
  };

  // Self-closing wakeup pipe.  The fds are written once at construction
  // and closed at destruction; Wakeup() may therefore poke the write end
  // from any thread without holding mutex_.
  struct WakeupPipe {
    WakeupPipe();
    ~WakeupPipe();
    int read_fd = -1;
    int write_fd = -1;
  };

  Status BindListener(PeerState* peer) REQUIRES(mutex_);
  void StageFrame(const std::string& dest, std::string frame,
                  bool local_dest) REQUIRES(mutex_);
  void StartConnect(OutConn* conn) REQUIRES(mutex_);
  void AbandonConn(OutConn* conn, bool retry) REQUIRES(mutex_);
  void FlushConn(OutConn* conn) REQUIRES(mutex_);
  void DecrementOutstanding() REQUIRES(mutex_);
  void Wakeup();
  // Wakeup() unless called on the loop thread.
  void WakeLoop() REQUIRES(mutex_);
  void LoopThread();
  int64_t NextDueUs() const REQUIRES(mutex_);

  const Options options_;
  const uint64_t origin_token_;

  // Lock hierarchy (DESIGN.md §12): mutex_ is a leaf.  The loop thread
  // releases it around every handler/timer callback, so re-entrant
  // Send()/ScheduleTimer() calls never nest acquisitions.
  mutable Mutex mutex_;
  CondVar quiescent_cv_;
  std::map<std::string, PeerState> peers_ GUARDED_BY(mutex_);
  std::map<std::string, std::string> remote_peers_
      GUARDED_BY(mutex_);                                // id -> host:port
  std::map<std::string, OutConn> out_conns_ GUARDED_BY(mutex_);  // by dest
  std::map<int, InConn> in_conns_ GUARDED_BY(mutex_);            // by fd
  std::multimap<int64_t, PendingEntry> pending_
      GUARDED_BY(mutex_);  // due wall µs
  TimerId next_timer_id_ GUARDED_BY(mutex_) = 1;
  // Timers not yet run, by id, with their due time (their pending_ key).
  std::map<TimerId, int64_t> live_timers_ GUARDED_BY(mutex_);
  int64_t outstanding_ GUARDED_BY(mutex_) = 0;
  bool running_ GUARDED_BY(mutex_) = false;
  std::thread::id loop_id_ GUARDED_BY(mutex_);  // set while the loop runs
  bool stopping_ GUARDED_BY(mutex_) = false;
  NetworkStats stats_ GUARDED_BY(mutex_);
  TcpStats tcp_stats_ GUARDED_BY(mutex_);
  FaultInjector faults_ GUARDED_BY(mutex_);

  const WakeupPipe wakeup_;
  // Joined by whichever Stop() call claimed it under mutex_ (the claim
  // is what makes concurrent Stop()s safe: only one joins).
  std::thread loop_ GUARDED_BY(mutex_);

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace hyperion

#endif  // HYPERION_P2P_TCP_NETWORK_H_
