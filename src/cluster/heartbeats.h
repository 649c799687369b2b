// Heartbeats: the membership protocol of a cluster node.
//
// A beat goes to every roster peer each heartbeat_ms.  It carries:
//
//  * the sender's listen address, so a node that bound an ephemeral
//    port becomes reachable once anyone hears it (address learning),
//    plus every roster address the sender knows (gossip), which
//    receivers use to fill gaps only;
//  * a storage sender's per-shard write-log versions, which every
//    receiver records — how a restarted replica discovers it is stale,
//    what the repair puller pulls toward, and what the coordinator's
//    commit gate and `versions` REPL verb read;
//  * the sender's committed (and, mid-transition, pending) ring epoch
//    and storage roster, which the rebalance protocol adopts from
//    (rebalance.h) before this protocol handles the beat.
//
// A heard beat feeds the MembershipTracker (membership.h), whose sweep
// applies the suspect/down timeouts.  The roster — who is beaten and
// whose beats count — is the rebalance protocol's to set (SetRoster).
//
// Addresses are the only transport-specific state here: each one learned
// is handed to the node's Route, which on tcp is
// TcpNetwork::SetRemotePeer and elsewhere nothing at all.
//
// Threading: every method is callable from any thread; the handler and
// beat run on the network's handler thread.  mu_ is a leaf (DESIGN.md
// §12): it is never held across a network call, the write log's, the
// placement's or the tracker's mutex.

#ifndef HYPERION_CLUSTER_HEARTBEATS_H_
#define HYPERION_CLUSTER_HEARTBEATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "cluster/cluster_config.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/write_path.h"
#include "common/synchronization.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"

namespace hyperion {
namespace cluster {

class Heartbeats {
 public:
  /// \brief Routes sends for `node` to `host_port`.
  using Route =
      std::function<void(const std::string& node, const std::string& addr)>;

  /// \brief The roster starts as every config node but `self`.  Every
  /// reference must outlive this object; `route` may be null.
  Heartbeats(const ClusterConfig& config, const NodeSpec& self,
             Network& net, const PlacementState& placement,
             MembershipTracker& membership, const ShardWriteLog& write_log,
             Route route);

  /// \brief Routes every config peer whose address is known (learned, or
  /// a nonzero config port), and lets beats go out announcing
  /// `listen_addr`.  Port-0 peers stay unreachable until heard from.
  void Start(std::string listen_addr);

  /// \brief Stops beats from going out.
  void Stop();

  /// \brief Records `node`'s address and routes to it.
  void SetAddress(const std::string& node, const std::string& host_port);

  /// \brief One beat to every roster peer with a known address.
  void SendHeartbeats();

  /// \brief Handles a beat the rebalance protocol has already adopted
  /// from.  Returns whether the sender is on the roster (only then does
  /// the beat count).
  bool HandleHeartbeat(const HeartbeatMsg& hb);

  /// \brief Replaces the roster: members join the tracker, leavers leave
  /// it and their advertised versions are forgotten.
  void SetRoster(std::set<std::string> roster);

  /// \brief node → (shard → write-log version), as last advertised.
  std::map<std::string, std::map<uint64_t, uint64_t>> PeerShardVersions()
      const;

  /// \brief The version `node` last advertised for `shard` (0 = none).
  uint64_t AdvertisedVersion(const std::string& node, uint64_t shard) const;

  /// \brief The peer advertising the highest version of `shard` above
  /// `above` (first by node id on ties); empty when none is ahead.
  std::string MostAdvancedPeer(uint64_t shard, uint64_t above) const;

 private:
  const ClusterConfig& config_;
  const NodeSpec& self_;
  Network& net_;
  const PlacementState& placement_;
  MembershipTracker& membership_;
  const ShardWriteLog& write_log_;
  const Route route_;
  const uint64_t incarnation_;

  mutable Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  std::string listen_addr_ GUARDED_BY(mu_);
  uint64_t beat_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::string> known_addrs_ GUARDED_BY(mu_);
  std::set<std::string> roster_ GUARDED_BY(mu_);
  std::map<std::string, std::map<uint64_t, uint64_t>> peer_shard_versions_
      GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_HEARTBEATS_H_
