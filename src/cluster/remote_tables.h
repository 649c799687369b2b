// ClusterTableSource: the coordinator's TableSource over the wire, with
// replica-aware failover.
//
// Fetch(name) runs one ShardFetchMsg conversation per shard against the
// shard's replica set (placement from the committed ring of a
// PlacementState snapshot, its epoch stamped into every fetch),
// reassembles the
// original table from the slices (storage/shard_split.h) — byte-identical
// row order included — and caches the assembled table together with the
// set of storage nodes that served it.
//
// Failover policy, per shard:
//
//  * replicas are tried in membership order — alive (and not-yet-heard
//    `unknown`) first, then suspect; members the tracker already marked
//    `down` are skipped outright (and later named in the error if the
//    live set fails too);
//  * each attempt gets its own replica timeout; on timeout or a failed
//    send the fetch *fails over* to the next replica instead of failing
//    the query, cycling through the candidate list for a bounded number
//    of rounds with exponential backoff between rounds;
//  * optionally (hedge_delay_us > 0) a hedged request is fired at the
//    next replica after the hedge delay without giving up on the first —
//    whichever response arrives first wins;
//  * only when every candidate is exhausted does the fetch escalate to
//    kUnavailable, naming *all* dead replicas of the failing shard.
//
// A storage-side application error (e.g. NotFound for an unknown table)
// still travels back in the response's error/error_code fields and is
// rethrown here with its original status code — replicas hold the same
// data, so failing over on a data error would only mask it.  A partial
// table is never returned — AssembleTable refuses anything short of
// exact coverage.
//
// Every failover decision is observable: `cluster.failover.*` /
// `cluster.replica.*` metrics plus `cluster.failover` / `cluster.hedge`
// trace events (docs/METRICS.md).
//
// Each shard is one call on the node's CallTable (call.h): the replicas
// are its candidates, the replica timeout its attempt timeout, the fetch
// timeout its deadline, and any attempt's reply answers it.
//
// Threading: Fetch() blocks the calling service worker until its calls
// complete; they run on the network's event-loop thread, as does
// OnMemberDown() (the membership sweep timer).  On SimNetwork the
// blocked caller dispatches the simulation itself (CallWaiter).  The
// internal mutex guards only the cache and stats and is a leaf
// (DESIGN.md §12).

#ifndef HYPERION_CLUSTER_REMOTE_TABLES_H_
#define HYPERION_CLUSTER_REMOTE_TABLES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/call.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/shard_ring.h"
#include "common/synchronization.h"
#include "storage/table_source.h"

namespace hyperion {
namespace cluster {

/// \brief Coordinator-side table source that fetches shard slices from
/// their replica sets, failing over from dead owners to live ones.
class ClusterTableSource : public TableSource {
 public:
  struct Options {
    int64_t fetch_timeout_us = 5'000'000;    // whole fetch, all shards
    int64_t replica_timeout_us = 1'000'000;  // one replica attempt
    int64_t backoff_base_us = 50'000;        // doubles every retry round
    int64_t hedge_delay_us = 0;              // 0 = hedging off
    int attempts_per_replica = 2;            // retry rounds over the set
  };

  /// \brief Fetches run as calls on `calls` (the coordinator's table,
  /// whose node id they are sent from); `placement` decides replica
  /// placement (each fetch snapshots its committed ring and stamps its
  /// epoch into every ShardFetchMsg); `membership` orders replicas by
  /// liveness (nullptr = treat everyone as alive).  All three must
  /// outlive this source.
  ClusterTableSource(CallTable* calls, const PlacementState* placement,
                     const MembershipTracker* membership, Options options);

  /// \brief Fetches (or serves from cache) the named table.  Blocks up
  /// to the fetch timeout; kUnavailable names every dead replica of the
  /// shard that exhausted its set.  A storage node rejecting the fetch
  /// as epoch-stale (it committed a newer ring than this fetch resolved
  /// placement under) triggers a bounded re-resolve-and-retry
  /// (`cluster.epoch.refetches`) instead of failing the query.
  Result<VersionedTable> Fetch(const std::string& name) const override;

  /// \brief Membership-change hook: `node` transitioned to `down`.
  /// Drops every cached table whose assembly used `node` as a source, so
  /// a recovered-then-restarted node can never be shadowed by a stale
  /// assembly.  Call from the membership sweep (ClusterNode does).
  void OnMemberDown(const std::string& node);

  /// \brief Drops every cached table, forcing the next Fetch of each
  /// back onto the wire.
  void Evict();

  /// \brief Drops one cached table.  The write path calls this after a
  /// replicated write commits: the next Fetch re-pulls the table at its
  /// new version, which in turn invalidates covers keyed on the old one.
  void EvictTable(const std::string& name);

  /// \brief Whether `name` is cached (the next Fetch makes no call).
  bool IsCached(const std::string& name) const;

  /// \brief Rows fetched per (table, shard, serving node) so far — the
  /// per-shard row counts fig_cluster reports.  `owner` is the node that
  /// actually served the slice, which under failover may not be the
  /// primary.
  struct ShardStat {
    std::string table;
    uint64_t shard = 0;
    std::string owner;
    uint64_t rows = 0;
  };
  std::vector<ShardStat> ShardStats() const;

 private:
  // A cached assembled table plus the storage nodes its slices came
  // from (the eviction key for OnMemberDown).
  struct CacheEntry {
    VersionedTable table;
    std::set<std::string> sources;
  };

  // One fetch conversation against one placement snapshot; Fetch() wraps
  // it with the stale-epoch re-resolution loop.
  Result<VersionedTable> FetchOnce(const std::string& name) const;

  CallTable* const calls_;
  const PlacementState* const placement_;
  const MembershipTracker* const membership_;
  const Options options_;

  mutable Mutex mu_;
  mutable std::map<std::string, CacheEntry> cache_ GUARDED_BY(mu_);
  mutable std::vector<ShardStat> stats_ GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_REMOTE_TABLES_H_
