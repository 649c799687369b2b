// Rebalancer: the live shard-rebalancing protocol of a cluster node
// (DESIGN.md §15).
//
// The coordinator is the ring-epoch authority.  StartJoin and
// StartDecommission (or the auto-decommission deadline, checked on each
// membership sweep) diff the committed ring against the next one, mint
// the pending epoch and open a ledger of every (gained shard, new owner)
// pair; heartbeats announce it.  Every node adopts a strictly higher
// committed epoch, and mirrors the pending one, from any peer's beat
// (AdoptFromHeartbeat) — symmetric adoption, so a restarted coordinator
// relearns the live epoch from its own fleet within one beat instead of
// resurrecting the config-time ring.  A storage node that gains shards in
// the pending ring pulls each one's snapshot from an alive committed owner
// (MaybeHandoff, one call per shard keyed ShardPullKey("handoff", s)),
// installs it, acks the coordinator and chains into anti-entropy.  The
// coordinator commits the epoch once every ledger pair acked and
// advertised a write-log version at or past the committed write
// sequence (MaybeCommitEpoch).
//
// Placement changes reshape the heartbeat roster and, on storage nodes,
// the served slices (SyncRosterToPlacement).
//
// Threading: StartJoin/StartDecommission run on the caller's thread,
// everything else on the network's handler thread.  mu_ is a leaf
// (DESIGN.md §12): no other mutex and no network call is taken under it.

#ifndef HYPERION_CLUSTER_REBALANCE_H_
#define HYPERION_CLUSTER_REBALANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/call.h"
#include "cluster/cluster_config.h"
#include "cluster/heartbeats.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/remote_tables.h"
#include "cluster/repair.h"
#include "cluster/shard_ring.h"
#include "cluster/shard_server.h"
#include "cluster/write_path.h"
#include "common/synchronization.h"
#include "p2p/message.h"

namespace hyperion {
namespace cluster {

class Rebalancer {
 public:
  /// \brief Every reference must outlive this object.  `source` and
  /// `sink` are the coordinator's (null on storage nodes).
  Rebalancer(const ClusterConfig& config, const NodeSpec& self,
             CallTable& calls, PlacementState& placement,
             const MembershipTracker& membership, Heartbeats& heartbeats,
             ShardServer& shards, RepairPuller& repair,
             ClusterTableSource* source, const ClusterTableSink* sink);

  /// \brief Coordinator only: starts a transition adding storage node
  /// `id` at `host_port`; returns the pending epoch (ClusterNode::StartJoin).
  Result<uint64_t> StartJoin(const std::string& id,
                             const std::string& host_port);

  /// \brief Coordinator only: starts a transition removing `id`.
  Result<uint64_t> StartDecommission(const std::string& id);

  /// \brief Adopts a strictly higher committed epoch and/or a pending
  /// transition announced by `hb`, rebuilding the ring from the announced
  /// roster.  Runs before Heartbeats handles the beat: it may put the
  /// sender onto the roster the beat is gated by.
  void AdoptFromHeartbeat(const HeartbeatMsg& hb);

  /// \brief Storage: pulls every gained shard without a pull running.
  void MaybeHandoff();

  /// \brief Storage: a handoff snapshot arrived; `matched` = its pull
  /// was still live.
  void HandleHandoffRows(const Message& msg, bool matched);

  /// \brief Coordinator: a new owner installed a gained shard.
  void HandleHandoffAck(const Message& msg);

  /// \brief Coordinator: commits the pending epoch if its gate is open.
  void MaybeCommitEpoch();

  /// \brief Coordinator: decommissions one storage member silent past
  /// down_ms + decommission_after_ms, if any.
  void MaybeAutoDecommission(const std::vector<MemberInfo>& members);

  /// \brief Coordinator: node → (shard → rows) each handoff ack that
  /// completed a ledger pair reported.
  std::map<std::string, std::map<uint64_t, uint64_t>> HandoffRowsInstalled()
      const;

 private:
  // The in-flight transition's ledger: every (shard, gained node) pair
  // still owed a handoff ack, the write-log version each ack reported
  // (the commit gate compares it, or the newer heartbeat-advertised one,
  // against the committed write sequence), and the start time for the
  // convergence histogram.
  struct Transition {
    uint64_t epoch = 0;
    std::set<std::pair<uint64_t, std::string>> waiting;
    std::map<std::pair<uint64_t, std::string>, uint64_t> acked;
    int64_t started_us = 0;
    size_t moves = 0;
  };

  // Shared tail of StartJoin/StartDecommission: diffs committed → `next`,
  // installs the pending epoch and the ledger.
  Result<uint64_t> BeginTransition(ShardRing next, const std::string& verb,
                                   const std::string& subject);
  // Recomputes the heartbeat roster from the committed and pending rings
  // plus the config coordinators; `drop_unowned` also drops served
  // slices of shards this node no longer replicates.
  void SyncRosterToPlacement(bool drop_unowned);
  Result<ShardRing> RingOf(std::vector<std::string> nodes) const;

  const ClusterConfig& config_;
  const NodeSpec& self_;
  CallTable& calls_;
  PlacementState& placement_;
  const MembershipTracker& membership_;
  Heartbeats& heartbeats_;
  ShardServer& shards_;
  RepairPuller& repair_;
  ClusterTableSource* const source_;
  const ClusterTableSink* const sink_;

  mutable Mutex mu_;
  std::unique_ptr<Transition> transition_ GUARDED_BY(mu_);
  std::map<std::string, std::map<uint64_t, uint64_t>> handoff_rows_
      GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_REBALANCE_H_
