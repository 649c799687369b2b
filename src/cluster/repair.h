// RepairPuller: the anti-entropy protocol of a storage node.
//
// Heartbeats advertise every peer's per-shard write-log versions
// (heartbeats.h).  Each pass pulls, for every owned shard some peer is
// ahead on, the next missing log entry from the most advanced peer — one
// request-engine call per shard, keyed by ShardPullKey("repair", shard),
// taking the latest attempt's reply only.  An applied entry chains
// straight into a pass for that shard alone, so a replica many writes
// behind converges at network speed, not at repair_interval_ms per
// entry (DESIGN.md §14).
//
// "Owned" is the union of committed and pending ownership, so a new
// owner keeps converging on writes that landed after its handoff;
// shards whose handoff pull is still running are skipped (the snapshot
// supersedes entry-by-entry replay).
//
// Threading: passes run on the network's handler thread (the repair
// period, or a reply handler).  The class holds no lock of its own.

#ifndef HYPERION_CLUSTER_REPAIR_H_
#define HYPERION_CLUSTER_REPAIR_H_

#include <cstdint>
#include <string>

#include "cluster/call.h"
#include "cluster/cluster_config.h"
#include "cluster/heartbeats.h"
#include "cluster/placement.h"
#include "cluster/shard_server.h"
#include "p2p/message.h"

namespace hyperion {
namespace cluster {

/// \brief The key of the one repair or handoff pull a shard may have
/// running ("repair#3", "handoff#3").
std::string ShardPullKey(const char* kind, uint64_t shard);

class RepairPuller {
 public:
  /// \brief Every reference must outlive this object.
  RepairPuller(const ClusterConfig& config, const NodeSpec& self,
               CallTable& calls, const PlacementState& placement,
               ShardServer& shards, const Heartbeats& heartbeats);

  /// \brief One pass over every owned shard, or over `chain_shard` alone
  /// when it is not -1.  A no-op on the coordinator.
  void MaybeRepair(int64_t chain_shard);

  /// \brief A repair entry arrived; `matched` = the shard's live pull
  /// took it.
  void HandleRepairReply(const Message& msg, bool matched);

 private:
  const ClusterConfig& config_;
  const NodeSpec& self_;
  CallTable& calls_;
  const PlacementState& placement_;
  ShardServer& shards_;
  const Heartbeats& heartbeats_;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_REPAIR_H_
