// ClusterNode: one process of a hyperion cluster.
//
// A node is one peer (the node id) on a Network, running four protocols
// that each own their handlers and state:
//
//  * membership (heartbeats.h) — a beat to every roster peer each
//    heartbeat_ms, carrying the sender's listen address, its gossip of
//    every address it knows, a storage sender's per-shard write-log
//    versions and its committed (and pending) ring epoch; the sweep
//    applies the suspect/down timeouts (membership.h);
//  * storage serving (shard_server.h) — slices the TableStore by the
//    shard ring at start-up and answers shard fetches, replicated write
//    slices (through a per-shard monotonic write log, write_path.h),
//    repair fetches and handoff fetches;
//  * the repair puller (repair.h) — pulls the writes this replica
//    missed from the most advanced peer;
//  * rebalance (rebalance.h) — the coordinator is the ring-epoch
//    authority: `join`/`decommission` (or the auto-decommission deadline)
//    start an epoch transition, gained shards' new owners pull handoff
//    snapshots, and the coordinator commits the new epoch only once
//    every gained shard's handoff has acked and caught up to the
//    committed write sequence.  Every node adopts a strictly higher
//    committed epoch from ANY peer's heartbeat.
//
// The coordinator additionally owns a ClusterTableSource that fans
// fetches out to the storage nodes and reassembles tables for the query
// service, plus a ClusterTableSink that replicates curator writes under
// the configured write quorum.
//
// ClusterNode itself only wires the protocols together: it routes each
// message to its protocol, arms the periodic passes (heartbeat, sweep,
// repair) through one PeriodicTimers, and runs the lifecycle.
//
// Two factories:
//
//  * Create(config, self, store) builds the node its own TcpNetwork —
//    one process of a real cluster.  Lifecycle is two-phase so
//    ephemeral ports work across processes:
//
//      Bind()   — bind the listener; ListenPort()/WritePortFile() now
//                 report the real port, but nothing runs yet.
//      Start()  — load shards, route known addresses, start the event
//                 loop and the periodic passes.
//      Stop()   — cancel the periodic passes, fail every running call,
//                 stop the loop.
//
//    The listener, the port file and address routing
//    (TcpNetwork::SetRemotePeer, fed by config ports, SetPeerAddress,
//    joins and heartbeat address learning) are the only tcp-specific
//    parts of a node, and live here.  The launch script
//    (tools/run_cluster.sh) starts every storage node with port 0,
//    collects the port files, rewrites a resolved config and only then
//    starts the coordinator — no listen-before-connect race.
//
//  * Create(config, self, store, net) runs the node on a caller-owned
//    Network — a whole cluster on one SimNetwork, replayable at exact
//    virtual times.  Bind() registers the node's peer, Start() and
//    Stop() leave the network to its owner, peers are reached by id, and
//    the blocking Fetch/Apply calls dispatch the simulation themselves
//    (CallWaiter).  A stopped node still handles what the network
//    delivers (a FaultPlan crash window is how a sim node dies), and the
//    network must not deliver to a destroyed one.

#ifndef HYPERION_CLUSTER_NODE_H_
#define HYPERION_CLUSTER_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/call.h"
#include "cluster/cluster_config.h"
#include "cluster/heartbeats.h"
#include "cluster/membership.h"
#include "cluster/periodic.h"
#include "cluster/placement.h"
#include "cluster/rebalance.h"
#include "cluster/remote_tables.h"
#include "cluster/repair.h"
#include "cluster/shard_ring.h"
#include "cluster/shard_server.h"
#include "cluster/write_path.h"
#include "p2p/network_interface.h"
#include "p2p/tcp_network.h"
#include "storage/table_store.h"

namespace hyperion {
namespace cluster {

/// \brief One cluster process (storage or coordinator).  Construct via
/// Create, then Bind → Start → Stop.
class ClusterNode {
 public:
  /// \brief Validates that `self` names a node of `config`.  Storage
  /// nodes take ownership of `store` (the tables to slice and serve);
  /// the coordinator ignores it.  The node runs on its own TcpNetwork.
  static Result<std::unique_ptr<ClusterNode>> Create(ClusterConfig config,
                                                     std::string self,
                                                     TableStore store);

  /// \brief As above, on `net`, which must outlive the node.
  static Result<std::unique_ptr<ClusterNode>> Create(ClusterConfig config,
                                                     std::string self,
                                                     TableStore store,
                                                     Network& net);

  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// \brief Registers the node's peer: on its own TcpNetwork that binds
  /// the listener (config port, or ephemeral when 0).
  Status Bind();

  /// \brief The bound listen port; requires Bind() and the tcp factory.
  Result<uint16_t> ListenPort() const;

  /// \brief Writes "<port>\n" to `path` atomically (write + rename), the
  /// handshake file launch scripts poll for.  Requires ListenPort().
  Status WritePortFile(const std::string& path) const;

  /// \brief Slices the store (storage role), routes every peer whose
  /// address is known, and starts the event loop (tcp factory) and the
  /// periodic passes.
  Status Start();

  /// \brief Cancels the periodic passes, fails every running call (a
  /// blocked Fetch or Apply returns kUnavailable) and stops the event
  /// loop (tcp factory).  Idempotent.
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
                             const std::string& host_port) {
    return rebalance_.StartJoin(id, host_port);
  }

  /// \brief Coordinator only: starts an epoch transition that removes
  /// storage node `id` from the ring.  Refuses when another transition
  /// is in flight, when `id` is the last storage node, or when some
  /// shard would have no alive handoff source left.
  Result<uint64_t> StartDecommission(const std::string& id) {
    return rebalance_.StartDecommission(id);
  }

  /// \brief Coordinator only: the table source query services read
  /// through (nullptr on storage nodes).
  ClusterTableSource* table_source() { return table_source_.get(); }

  /// \brief Coordinator only: the write fan-out curator updates go
  /// through (nullptr on storage nodes).
  ClusterTableSink* table_sink() { return table_sink_.get(); }

  /// \brief Storage only: persist applied write slices under `dir` (one
  /// log file per shard) and replay whatever a previous incarnation left
  /// there at Start().  Call between Create and Start.
  void SetWriteLogDir(std::string dir) { write_log_dir_ = std::move(dir); }

  /// \brief This node's own per-shard write-log versions (storage role;
  /// empty elsewhere).
  const ShardWriteLog& write_log() const { return shards_.write_log(); }

  /// \brief Latest per-shard write-log versions each peer's heartbeats
  /// advertised: node → (shard → version).  The coordinator REPL's
  /// `versions` verb prints this — it is how the drill detects repair
  /// convergence.
  std::map<std::string, std::map<uint64_t, uint64_t>> PeerShardVersions()
      const {
    return heartbeats_.PeerShardVersions();
  }

  /// \brief Coordinator only: the rows each node installed for each
  /// shard it gained by a handoff, as its ack reported them: node →
  /// (shard → rows).  A later handoff of the same shard to the same node
  /// overwrites its entry.  The REPL's `handoffs` verb prints this; the
  /// rebalance drill polls it, so it needs no metrics build.
  std::map<std::string, std::map<uint64_t, uint64_t>> HandoffRowsInstalled()
      const {
    return rebalance_.HandoffRowsInstalled();
  }

  /// \brief Storage only: every shard this node replicates (primary or
  /// backup) under the committed ring — exactly the slices it serves.
  std::vector<uint64_t> owned_shards() const {
    return ring()->ShardsOwnedBy(self_spec_.id);
  }

  /// \brief Tcp factory: blocks until every roster member is alive or
  /// `timeout_us` elapses; returns the final AllAlive().  On an injected
  /// network the owner drives it instead (SimNetwork::RunUntil) and this
  /// returns AllAlive() at once.
  [[nodiscard]] bool WaitAllAlive(int64_t timeout_us);

 private:
  // Both factories: a null `net` builds the node its own TcpNetwork.
  static Result<std::unique_ptr<ClusterNode>> Build(ClusterConfig config,
                                                    std::string self,
                                                    TableStore store,
                                                    Network* net);
  ClusterNode(ClusterConfig config, NodeSpec self_spec, TableStore store,
              ShardRing ring, Network& net, std::unique_ptr<TcpNetwork> tcp);

  void HandleMessage(const Message& msg);
  // The membership sweep, and what a member going down means to the
  // coordinator's reads, writes and transitions.
  void Sweep();

  const ClusterConfig config_;
  const NodeSpec self_spec_;
  TableStore store_;
  std::string write_log_dir_;  // set pre-Start by the node's owner
  // The tcp factory's own transport (null on an injected network).
  const std::unique_ptr<TcpNetwork> tcp_;
  Network& net_;
  // The live placement (committed + pending rings with their epochs).
  // Internally synchronized; its mutex is a leaf.
  PlacementState placement_;
  MembershipTracker membership_;
  // Every request this node sends and the replies to them (call.h).
  CallTable calls_;
  PeriodicTimers timers_;
  std::unique_ptr<ClusterTableSource> table_source_;  // coordinator only
  std::unique_ptr<ClusterTableSink> table_sink_;      // coordinator only
  ShardServer shards_;
  Heartbeats heartbeats_;
  RepairPuller repair_;
  Rebalancer rebalance_;
  // Bind/Start/Stop run on the owner's thread, never concurrently.
  bool bound_ = false;
  bool running_ = false;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_NODE_H_
