// ClusterNode: one process of a hyperion cluster.
//
// A node is a TcpNetwork with exactly one registered peer (the node id)
// plus the role-specific machinery on top:
//
//  * storage — slices its TableStore by the shard ring at startup,
//    answers ShardFetchMsg with the owned slices (shard_split.h),
//    applies replicated write slices through a per-shard monotonic
//    write log (write_path.h), runs the anti-entropy repair loop that
//    pulls the writes it missed while dead, and pulls handoff snapshots
//    of the shards it gains during a rebalance transition;
//  * coordinator — owns a ClusterTableSource that fans fetches out to
//    the storage nodes and reassembles tables for the query service,
//    plus a ClusterTableSink that replicates curator writes to every
//    replica under the configured write quorum.  It is also the ring
//    epoch authority: `join`/`decommission` (or the auto-decommission
//    deadline) start an epoch transition, and the coordinator commits
//    the new epoch only once every gained shard's handoff has acked
//    and caught up to the committed write sequence.
//
// Both roles run the membership protocol: a heartbeat to every roster
// peer each heartbeat_ms, carrying this node's own listen address so
// nodes that bound ephemeral ports become reachable once anyone hears
// them (address learning), and a periodic sweep applying the
// suspect/down timeouts (membership.h).  Storage heartbeats also
// piggyback the node's per-shard write-log versions; every receiver
// records them, which is how a restarted replica discovers it is
// stale (a peer advertises a higher version for a shard it owns) and
// what the coordinator's `versions` REPL verb reports.  Heartbeats
// additionally announce the sender's committed (and, mid-transition,
// pending) ring epoch and storage roster; every node adopts a strictly
// higher committed epoch from ANY peer — symmetric adoption, so a
// restarted coordinator relearns the live epoch from its own fleet
// within one beat instead of resurrecting the config-time ring.
//
// Lifecycle is two-phase so ephemeral ports work across processes:
//
//   Bind()   — bind the listener; ListenPort()/WritePortFile() now
//              report the real port, but nothing runs yet.
//   Start()  — load shards, connect addresses, start the event loop and
//              the heartbeat/sweep timers.
//   Stop()   — cancel timers, fail every running call, stop the loop.
//
// The launch script (tools/run_cluster.sh) starts every storage node
// with port 0, collects the port files, rewrites a resolved config and
// only then starts the coordinator — no listen-before-connect race.

#ifndef HYPERION_CLUSTER_NODE_H_
#define HYPERION_CLUSTER_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/call.h"
#include "cluster/cluster_config.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/remote_tables.h"
#include "cluster/shard_ring.h"
#include "cluster/write_path.h"
#include "common/synchronization.h"
#include "p2p/tcp_network.h"
#include "storage/shard_split.h"
#include "storage/table_store.h"

namespace hyperion {
namespace cluster {

/// \brief One cluster process (storage or coordinator).  Construct via
/// Create, then Bind → Start → Stop.
class ClusterNode {
 public:
  /// \brief Validates that `self` names a node of `config`.  Storage
  /// nodes take ownership of `store` (the tables to slice and serve);
  /// the coordinator ignores it.
  static Result<std::unique_ptr<ClusterNode>> Create(ClusterConfig config,
                                                     std::string self,
                                                     TableStore store);

  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// \brief Binds the listener (config port, or ephemeral when 0).
  Status Bind();

  /// \brief The bound listen port; requires Bind().
  Result<uint16_t> ListenPort() const;

  /// \brief Writes "<port>\n" to `path` atomically (write + rename), the
  /// handshake file launch scripts poll for.  Requires Bind().
  Status WritePortFile(const std::string& path) const;

  /// \brief Slices the store (storage role), connects every peer whose
  /// address is known, and starts the event loop and timers.
  Status Start();

  /// \brief Cancels timers, fails every running call (a blocked Fetch or
  /// Apply returns kUnavailable) and stops the event loop.  Idempotent.
  void Stop();

  /// \brief Overrides a peer's address (launch scripts with resolved
  /// ports call this; heartbeats learn addresses the same way later).
  void SetPeerAddress(const std::string& node, const std::string& host_port);

  const ClusterConfig& config() const { return config_; }
  const NodeSpec& self() const { return self_spec_; }

  /// \brief The committed shard ring.  A snapshot: rebalance commits
  /// swap the placement under running code, so callers hold the ring
  /// they resolved against even while the epoch moves on.
  std::shared_ptr<const ShardRing> ring() const {
    return placement_.Committed().ring;
  }

  /// \brief The committed ring epoch (coordinator mints 1 at startup;
  /// storage nodes start at 0 and adopt from heartbeats).
  uint64_t ring_epoch() const { return placement_.epoch(); }

  /// \brief The in-flight transition's target epoch (0 = none).
  uint64_t pending_epoch() const { return placement_.pending_epoch(); }

  MembershipTracker& membership() { return membership_; }

  /// \brief Coordinator only: starts an epoch transition that adds
  /// storage node `id` (listening at `host_port`) to the ring.  Returns
  /// the pending epoch; the commit happens asynchronously once every
  /// gained shard's handoff acked.  Fails while another transition is
  /// in flight or `id` is already on the roster.
  Result<uint64_t> StartJoin(const std::string& id,
                             const std::string& host_port);

  /// \brief Coordinator only: starts an epoch transition that removes
  /// storage node `id` from the ring.  Refuses when another transition
  /// is in flight, when `id` is the last storage node, or when some
  /// shard would have no alive handoff source left.
  Result<uint64_t> StartDecommission(const std::string& id);

  /// \brief Coordinator only: the table source query services read
  /// through (nullptr on storage nodes).
  ClusterTableSource* table_source() { return table_source_.get(); }

  /// \brief Coordinator only: the write fan-out curator updates go
  /// through (nullptr on storage nodes).
  ClusterTableSink* table_sink() { return table_sink_.get(); }

  /// \brief Storage only: persist applied write slices under `dir` (one
  /// log file per shard) and replay whatever a previous incarnation left
  /// there at Start().  Call between Create and Start.
  void SetWriteLogDir(std::string dir);

  /// \brief This node's own per-shard write-log versions (storage role;
  /// empty elsewhere).
  const ShardWriteLog& write_log() const { return write_log_; }

  /// \brief Latest per-shard write-log versions each peer's heartbeats
  /// advertised: node → (shard → version).  The coordinator REPL's
  /// `versions` verb prints this — it is how the drill detects repair
  /// convergence.
  std::map<std::string, std::map<uint64_t, uint64_t>> PeerShardVersions()
      const;

  /// \brief Coordinator only: the rows each node installed for each
  /// shard it gained by a handoff, as its ack reported them: node →
  /// (shard → rows).  A later handoff of the same shard to the same node
  /// overwrites its entry.  The REPL's `handoffs` verb prints this; the
  /// rebalance drill polls it, so it needs no metrics build.
  std::map<std::string, std::map<uint64_t, uint64_t>> HandoffRowsInstalled()
      const;

  /// \brief Storage only: every shard this node replicates (primary or
  /// backup) under the committed ring — exactly the slices it serves.
  std::vector<uint64_t> owned_shards() const;

  /// \brief Blocks until every roster member is alive or `timeout_us`
  /// elapses; returns the final AllAlive().
  [[nodiscard]] bool WaitAllAlive(int64_t timeout_us);

  /// \brief The network, for wiring a QueryService onto the coordinator.
  TcpNetwork& network() { return *net_; }

 private:
  ClusterNode(ClusterConfig config, NodeSpec self_spec, TableStore store,
              ShardRing ring);

  void HandleMessage(const Message& msg);
  void HandleHeartbeat(const Message& msg);
  // Sends a request's reply (ack, slice, error...) and accounts for
  // failure: the requester can survive a lost reply (timeouts, repair),
  // but a silently unsendable one looks identical to a dead peer, so
  // every drop bumps `cluster.reply.send_failures` and leaves a trace
  // event naming the handler that produced it.
  void SendReply(Message out, const char* context);
  void HandleShardFetch(const Message& msg);    // storage role
  void HandleWriteSlice(const Message& msg);    // storage role
  void HandleRepairFetch(const Message& msg);   // storage role
  void HandleHandoffFetch(const Message& msg);  // storage role (source)
  // Replies to this node's own pulls; `matched` = a live call took it.
  void HandleRepairReply(const Message& msg, bool matched);
  void HandleHandoffRows(const Message& msg, bool matched);
  void HandleHandoffAck(const Message& msg);    // coordinator role
  // Offers one slice to the write log + served-slice map; loop thread
  // only (or driver thread pre-loop, during Start()'s replay).
  Result<ApplyOutcome> ApplyWriteSlice(const WriteSliceMsg& slice);
  // Installs a (logged) slice into the served-slice map; same threading
  // rule as ApplyWriteSlice.
  void InstallSlice(const WriteSliceMsg& slice);
  // One anti-entropy pass: for every owned shard a peer is ahead on,
  // pull the next missing log entry (bounded to one in-flight fetch per
  // shard).  `chain_shard` != -1 restricts the pass to that shard — the
  // fast path a just-applied repair entry takes to fetch its successor.
  // "Owned" is the union of committed and pending ownership, so a new
  // owner keeps converging on writes that landed after its handoff;
  // shards with a handoff still in flight are skipped (the handoff
  // snapshot supersedes entry-by-entry replay).
  void MaybeRepair(int64_t chain_shard);
  // One handoff pass (storage role): for every shard gained in the
  // pending ring without a handoff in flight, pull the full shard
  // snapshot from an alive committed owner (bounded to one in-flight
  // pull per shard; timed-out pulls re-arm like repair fetches do).
  void MaybeHandoff();
  // Adopts a strictly higher committed epoch and/or a pending
  // transition announced by `hb`, rebuilding the ring from the
  // announced roster.  Loop thread.
  void AdoptFromHeartbeat(const HeartbeatMsg& hb);
  // Recomputes the heartbeat/membership roster from the committed and
  // pending rings plus the config coordinators; call after any
  // placement change.  `drop_unowned` additionally drops served slices
  // of shards this node no longer replicates (storage, loop thread).
  void SyncRosterToPlacement(bool drop_unowned);
  // Coordinator: commits the pending epoch once every gained
  // (shard, node) pair acked its handoff and advertised a write-log
  // version at or past the committed write sequence.
  void MaybeCommitEpoch();
  // Coordinator sweep hook: starts a decommission transition for a
  // storage member silent past down_ms + decommission_after_ms.
  void MaybeAutoDecommission(const std::vector<MemberInfo>& members);
  // Shared tail of StartJoin/StartDecommission: diffs committed →
  // `next`, installs the pending epoch and the transition ledger.
  Result<uint64_t> BeginTransition(ShardRing next, const std::string& verb,
                                   const std::string& subject);
  void SendHeartbeats();
  void ScheduleHeartbeat();
  void ScheduleSweep();
  void ScheduleRepair();  // storage role
  int64_t NowUs() const;

  const ClusterConfig config_;
  const NodeSpec self_spec_;
  TableStore store_;
  // The live placement (committed + pending rings with their epochs).
  // Internally synchronized; its mutex is a leaf like mu_ — never take
  // one while holding the other.
  PlacementState placement_;
  MembershipTracker membership_;
  std::unique_ptr<TcpNetwork> net_;
  // Every request this node sends and the replies to them (call.h).
  std::unique_ptr<CallTable> calls_;
  std::unique_ptr<ClusterTableSource> table_source_;  // coordinator only
  std::unique_ptr<ClusterTableSink> table_sink_;      // coordinator only
  const uint64_t incarnation_;
  // Storage role.  write_log_ is internally synchronized (its mutex is
  // a leaf, like mu_ — never take one while holding the other);
  // write_log_dir_ is set pre-Start from the driver thread only.
  ShardWriteLog write_log_;
  std::string write_log_dir_;

  mutable Mutex mu_;
  bool bound_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  uint64_t beat_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::string> known_addrs_ GUARDED_BY(mu_);
  // Peers this node heartbeats and accepts heartbeats from.  Starts as
  // the config roster; rebalance transitions add pending members at
  // announcement time and drop decommissioned ones at commit.
  std::set<std::string> roster_ GUARDED_BY(mu_);
  Network::TimerId heartbeat_timer_ GUARDED_BY(mu_) = 0;
  Network::TimerId sweep_timer_ GUARDED_BY(mu_) = 0;
  Network::TimerId repair_timer_ GUARDED_BY(mu_) = 0;
  // node → (shard → write-log version), learned from heartbeats.
  std::map<std::string, std::map<uint64_t, uint64_t>> peer_shard_versions_
      GUARDED_BY(mu_);
  // Coordinator: the in-flight epoch transition's ledger — every
  // (shard, gained node) pair still owed a handoff ack, the write-log
  // version each ack reported (the commit gate compares it, or the
  // newer heartbeat-advertised one, against the committed write
  // sequence), and the start time for the convergence histogram.
  struct Transition {
    uint64_t epoch = 0;
    std::set<std::pair<uint64_t, std::string>> waiting;
    std::map<std::pair<uint64_t, std::string>, uint64_t> acked;
    int64_t started_us = 0;
    size_t moves = 0;
  };
  std::unique_ptr<Transition> transition_ GUARDED_BY(mu_);
  // Coordinator: rows installed per (node, gained shard), from the
  // handoff acks that completed a transition's wait.
  std::map<std::string, std::map<uint64_t, uint64_t>> handoff_rows_
      GUARDED_BY(mu_);
  // Owned shard slices.  Filled by Start() (driver thread, before the
  // event loop runs) and thereafter mutated only by the write/repair/
  // handoff/adoption handlers on the loop thread — the same thread that
  // reads it to answer fetches, so no lock is needed.
  std::map<std::pair<std::string, uint64_t>, ShardSlice> slices_;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_NODE_H_
