// The distributed write path: curator updates as first-class cluster
// operations.
//
// Reads became cluster-native in PR 6/7 (sharded placement, R-way
// replication, failover); this file adds the write half:
//
//  * ClusterTableSink — the coordinator-side dual of ClusterTableSource.
//    Apply(table, version) slices the post-write table with the shard
//    ring (storage/shard_split.h — original row indices included, so
//    replicas reassemble byte-identically), stamps every slice with one
//    global write sequence number, fans each shard's slice out to EVERY
//    replica of that shard, and blocks until a configurable write quorum
//    of per-replica acks arrives — retrying lagging replicas with
//    exponential backoff until the write deadline.
//
//  * ShardWriteLog — the storage-side per-shard monotonic version
//    counter plus the ordered log of applied write slices behind it.
//    Anything at or below the current version is an idempotent
//    duplicate (acked, not re-applied); versions above it may be
//    appended even across a gap (burned sequences, below), so the log
//    only enforces monotonicity.  Entries are held in memory as their
//    wire encoding and decoded when read.  The log optionally persists
//    to a directory (one frame-appended file per shard, the wire codec's
//    own format) so a restarted node resumes from its pre-crash state.
//
// Version semantics: every write ships one slice per shard — empty
// slices included, since a write may delete a shard's rows — so all
// shard versions advance in lockstep and the per-shard version IS the
// global write sequence.  A sequence number is reserved when Apply()
// starts and is BURNED if the write fails: a quorum-failed write may
// already have landed on some replicas (lost or post-deadline ack), so
// reusing its sequence for a different write would let those replicas
// ack the new write as a "duplicate" while still holding the aborted
// content — permanent divergence at identical versions, invisible to
// version-comparing anti-entropy.  Every slice therefore carries
// `committed_floor`, the last sequence that actually committed before
// it: a replica at or past the floor may apply the slice even across a
// gap (the gap holds only burned sequences, and a slice is full shard
// state, so the jump loses nothing), while a replica below the floor is
// genuinely stale — it is missing committed writes, possibly of other
// tables — and must reject.  A replica whose heartbeat advertises shard
// versions behind a peer's is detectably stale; ClusterNode's
// anti-entropy pass pulls the missing entries one at a time
// (RepairFetchMsg → WriteSliceMsg with the repair flag, gap-tolerant
// via EntryAfter) until the versions agree.  One residue is accepted
// and documented (DESIGN.md §14 non-goals): replicas that applied a
// slice of a FAILED write keep that content until the next committed
// write of the same table overwrites it — a failed write is
// indeterminate, never silently resurrected as a later "duplicate".
//
// Quorum: `quorum` 0 (the default) means "every replica the membership
// tracker currently believes alive" — re-evaluated while waiting, so a
// replica that dies mid-write and transitions to down stops being
// required.  An explicit quorum in [1, R] commits as soon as that many
// replicas of every shard acked, leaving the rest to anti-entropy.
//
// Each (shard, replica) delivery is one call on the node's CallTable
// (call.h): one candidate, attempts_per_replica attempts, a refused ack
// failing its attempt; the quorum is re-checked whenever a call ends and
// whenever OnMemberDown() reports a replica down.
//
// Threading: Apply() blocks the calling (REPL or bench) thread until the
// quorum is decided and is serialized by its own writer mutex, so
// concurrent callers queue rather than minting the same sequence; the
// calls and OnMemberDown() run on the network's event-loop thread.  mu_
// is a leaf (DESIGN.md §12), only ever taken after apply_mu_.

#ifndef HYPERION_CLUSTER_WRITE_PATH_H_
#define HYPERION_CLUSTER_WRITE_PATH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/call.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/shard_ring.h"
#include "common/synchronization.h"
#include "core/mapping_table.h"
#include "p2p/message.h"

namespace hyperion {
namespace cluster {

/// \brief Storage-side outcome of offering one write slice to a replica.
enum class ApplyOutcome {
  kApplied,    // at or past the slice's committed floor: applied, logged
  kDuplicate,  // sequence at or below current: idempotent no-op
  kStale,      // below the floor: this replica is missing committed writes
};

/// \brief Per-shard monotonic write log: the version counter replicas
/// ack against plus the entries anti-entropy replays.  Thread-safe; the
/// internal mutex is a leaf.
class ShardWriteLog {
 public:
  /// \brief Enables persistence under `dir` (created if absent) and
  /// loads any entries a previous incarnation left there.  Call before
  /// the first Append; never calling it keeps the log memory-only.
  Status Open(const std::string& dir, uint64_t shard_count);

  /// \brief Current version of `shard` (0 = no writes applied).
  uint64_t VersionOf(uint64_t shard) const;

  /// \brief (shard, version) for every shard with at least one entry —
  /// the piggyback heartbeats carry.  Shards ascending.
  std::vector<std::pair<uint64_t, uint64_t>> Versions() const;

  /// \brief Appends `entry` (its shard_version must be above
  /// VersionOf(shard); gaps are legal — they hold burned sequences) and
  /// persists it when Open() was called.
  Status Append(const WriteSliceMsg& entry);

  /// \brief The entry that moved `shard` to `version` (NotFound when the
  /// log has no such entry — e.g. a memory-only log of a younger node).
  Result<WriteSliceMsg> EntryAt(uint64_t shard, uint64_t version) const;

  /// \brief The oldest entry of `shard` with a version strictly above
  /// `version` — what a repair source serves, stepping over burned
  /// sequences the log never held (NotFound when nothing is newer).
  Result<WriteSliceMsg> EntryAfter(uint64_t shard, uint64_t version) const;

  /// \brief Raises `shard`'s version to at least `version` without an
  /// entry — how a handoff receiver adopts the source's write history it
  /// installed as live state rather than log entries.  VersionOf and the
  /// heartbeat piggyback report the floor; Append stays monotonic
  /// against it; anti-entropy chains from it.  Memory-only (a restart
  /// falls back to the log, DESIGN.md §15 non-goals).
  void SetFloor(uint64_t shard, uint64_t version);

 private:
  mutable Mutex mu_;
  std::string dir_ GUARDED_BY(mu_);  // empty = memory-only
  // shard -> (version -> the slice that created that version), kept as
  // its wire encoding (the persisted frame's payload) — several times
  // smaller than live Mappings — and decoded on demand.
  std::map<uint64_t, std::map<uint64_t, std::string>> entries_
      GUARDED_BY(mu_);
  // shard -> handoff-installed version floor (see SetFloor).
  std::map<uint64_t, uint64_t> floors_ GUARDED_BY(mu_);
};

/// \brief Coordinator-side write fan-out: slices a curator's post-write
/// table and replicates every shard's slice to the shard's full replica
/// set under a write quorum.
class ClusterTableSink {
 public:
  struct Options {
    int64_t write_timeout_us = 5'000'000;    // whole write, all shards
    int64_t replica_timeout_us = 1'000'000;  // one replica attempt
    int64_t backoff_base_us = 50'000;        // doubles every retry round
    int attempts_per_replica = 3;            // send rounds per replica
    uint64_t quorum = 0;                     // 0 = all currently alive
  };

  /// \brief Deliveries run as calls on `calls` (the coordinator's
  /// table); `calls`, `placement` and `membership` must outlive this
  /// sink (nullptr membership = treat every replica as alive).  Each
  /// Apply() snapshots the placement at entry: slices go to the
  /// COMMITTED owners of each shard (those count toward the quorum) and,
  /// mid-transition, additionally to the PENDING owners best-effort — so
  /// a write landed during a rebalance is already on the new owners when
  /// the epoch commits.
  ClusterTableSink(CallTable* calls, const PlacementState* placement,
                   const MembershipTracker* membership, Options options);

  /// \brief How one committed write went.
  struct WriteReport {
    uint64_t sequence = 0;       // the write's global sequence number
    uint64_t table_version = 0;  // version replicas now serve the table at
    size_t acks = 0;             // replica acks received before commit
    /// Replicas that never acked (dead or slow) — anti-entropy's job now.
    std::vector<std::string> lagging;
  };

  /// \brief Replicates `table` (the full post-write state) at
  /// `table_version` to every replica of every shard.  Blocks until the
  /// quorum is met on every shard or the write deadline passes;
  /// kUnavailable names every replica that never acked.
  Result<WriteReport> Apply(const MappingTable& table, uint64_t table_version);

  /// \brief Membership-change hook: a replica went down, so an Apply
  /// under the all-alive quorum may no longer need its ack.  Call from
  /// the membership sweep (ClusterNode does).
  void OnMemberDown();

  /// \brief Global sequence number of the last write ATTEMPT — a failed
  /// Apply burns its sequence, so this may run ahead of
  /// committed_sequence().
  uint64_t sequence() const;

  /// \brief Global sequence number of the last committed write — the
  /// floor stamped onto the next write's slices.
  uint64_t committed_sequence() const;

 private:
  CallTable* const calls_;
  const PlacementState* const placement_;
  const MembershipTracker* const membership_;
  const Options options_;

  // Serializes whole Apply() calls: the second concurrent writer queues
  // behind the first instead of minting the same sequence.  Always taken
  // before mu_, never the other way around.
  Mutex apply_mu_ ACQUIRED_BEFORE(mu_);

  mutable Mutex mu_;
  // The running Apply's waiter, for OnMemberDown to wake.
  std::shared_ptr<CallWaiter> active_ GUARDED_BY(mu_);
  // Sequence of the last write attempt; advanced at Apply() entry, so a
  // failed write burns its number instead of leaking it to the next one.
  uint64_t write_seq_ GUARDED_BY(mu_) = 0;
  // Sequence of the last write that met its quorum (<= write_seq_).
  uint64_t committed_seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_WRITE_PATH_H_
