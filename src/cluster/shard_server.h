// ShardServer: the storage-serving protocol of a cluster node.
//
// A storage node slices its TableStore by the shard ring at start-up
// (every shard it replicates, primary or backup) and from then on
// answers:
//
//  * ShardFetch — the served slice of one (table, shard), refused when
//    the fetcher resolved placement under a ring this node has already
//    replaced (it re-resolves and refetches);
//  * WriteSlice — a replicated curator write, offered to the per-shard
//    write log (write_path.h) and, if applied, installed as the served
//    slice; the ack reports the shard's version;
//  * RepairFetch — the oldest logged entry above the puller's version;
//  * HandoffFetch — a full snapshot of one shard for its new owner.
//
// The repair puller applies pulled entries through ApplyWriteSlice, and
// the rebalance protocol installs handoff snapshots through
// InstallHandoff and sheds slices it no longer owns through DropUnowned.
// A coordinator runs one too, serving nothing: it refuses every request
// as "not a storage node".
//
// Threading: Load() runs before the network delivers to the node;
// everything else runs on the network's handler thread — the only one
// that touches slices_, so it needs no lock.  The write log is
// internally synchronized (its mutex is a leaf).

#ifndef HYPERION_CLUSTER_SHARD_SERVER_H_
#define HYPERION_CLUSTER_SHARD_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "cluster/cluster_config.h"
#include "cluster/placement.h"
#include "cluster/write_path.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"
#include "storage/shard_split.h"
#include "storage/table_store.h"

namespace hyperion {
namespace cluster {

class ShardServer {
 public:
  /// \brief Every reference must outlive this object.
  ShardServer(const NodeSpec& self, Network& net,
              const PlacementState& placement);

  /// \brief Slices `store` into the shards this node replicates under
  /// the committed ring.  With a nonempty `write_log_dir`, persists the
  /// write log there and replays what a previous incarnation left.
  Status Load(const TableStore& store, const std::string& write_log_dir,
              uint64_t shard_count);

  void HandleShardFetch(const Message& msg);
  void HandleWriteSlice(const Message& msg);
  void HandleRepairFetch(const Message& msg);
  void HandleHandoffFetch(const Message& msg);

  /// \brief Offers one slice to the write log and, if applied, serves it.
  Result<ApplyOutcome> ApplyWriteSlice(const WriteSliceMsg& slice);

  /// \brief Installs a handoff snapshot unless this node's log is
  /// already past it, adopting its version as the shard's floor.
  /// Returns the rows installed.
  uint64_t InstallHandoff(const HandoffRowsMsg& rows);

  /// \brief Stops serving shards this node replicates in neither the
  /// committed nor the pending ring.
  void DropUnowned();

  /// \brief Sends a request's reply (ack, slice, error...) and accounts
  /// for failure: the requester can survive a lost reply (timeouts,
  /// repair), but a silently unsendable one looks identical to a dead
  /// peer, so every drop bumps `cluster.reply.send_failures` and leaves
  /// a trace event naming the handler that produced it.
  void SendReply(Message out, const char* context);

  const ShardWriteLog& write_log() const { return write_log_; }

 private:
  // Installs a (logged) slice into the served-slice map.
  void InstallSlice(const WriteSliceMsg& slice);

  const NodeSpec& self_;
  Network& net_;
  const PlacementState& placement_;
  ShardWriteLog write_log_;
  std::map<std::pair<std::string, uint64_t>, ShardSlice> slices_;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_SHARD_SERVER_H_
