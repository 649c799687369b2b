// PlacementState: the live, epoch-versioned shard placement every
// cluster role reads through.
//
// PR 6–8 froze the ShardRing at config-parse time; rebalancing makes it
// a mutable object with two slots:
//
//  * committed — the placement reads are served from and write quorums
//    are counted against, tagged with a monotonic ring epoch.  The
//    coordinator is the epoch authority: it alone mints new epochs, and
//    every other node adopts whatever (epoch, roster) the coordinator's
//    heartbeats announce (higher epoch wins, so a restarted node catches
//    up within one beat).
//
//  * pending — the placement a transition is converging toward, one
//    epoch above committed.  While pending exists, writes fan out to the
//    UNION of committed and pending owners (write_path.h) and new owners
//    pull handoff snapshots of their gained shards (rebalance.h); reads
//    stay on committed owners throughout, which is what keeps covers
//    byte-identical across the transition.  Commit() promotes pending
//    atomically once the coordinator has seen every gained shard caught
//    up.
//
// Holders hand out shared_ptr snapshots: a Fetch/Apply in flight keeps
// the ring it started with even if the epoch commits under it — the
// epoch stamped into its messages then tells receivers how stale it is.
//
// Thread-safe; the internal mutex is a leaf (DESIGN.md §12).

#ifndef HYPERION_CLUSTER_PLACEMENT_H_
#define HYPERION_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_ring.h"
#include "common/synchronization.h"

namespace hyperion {
namespace cluster {

/// \brief Thread-safe holder of the committed (and, mid-transition,
/// pending) shard placement, each tagged with its ring epoch.
class PlacementState {
 public:
  /// \brief One placement at one epoch.  `ring` is never null for a
  /// committed snapshot; a Pending() snapshot with a null ring means "no
  /// transition in flight" (its epoch is then 0).
  struct Snapshot {
    std::shared_ptr<const ShardRing> ring;
    uint64_t epoch = 0;
  };

  PlacementState(ShardRing initial, uint64_t epoch)
      : committed_(std::make_shared<const ShardRing>(std::move(initial))),
        epoch_(epoch) {}

  /// \brief The committed placement and its epoch.
  Snapshot Committed() const {
    MutexLock lock(mu_);
    return Snapshot{committed_, epoch_};
  }

  /// \brief The in-flight transition target (ring null when none).
  Snapshot Pending() const {
    MutexLock lock(mu_);
    return Snapshot{pending_, pending_ == nullptr ? 0 : pending_epoch_};
  }

  uint64_t epoch() const {
    MutexLock lock(mu_);
    return epoch_;
  }

  uint64_t pending_epoch() const {
    MutexLock lock(mu_);
    return pending_ == nullptr ? 0 : pending_epoch_;
  }

  bool HasPending() const {
    MutexLock lock(mu_);
    return pending_ != nullptr;
  }

  /// \brief The shards `node` replicates under the committed ring or,
  /// mid-transition, the pending one.
  std::set<uint64_t> ShardsOwnedBy(const std::string& node) const {
    const Snapshot committed = Committed();
    const Snapshot pending = Pending();
    std::vector<uint64_t> shards = committed.ring->ShardsOwnedBy(node);
    std::set<uint64_t> owned(shards.begin(), shards.end());
    if (pending.ring != nullptr) {
      shards = pending.ring->ShardsOwnedBy(node);
      owned.insert(shards.begin(), shards.end());
    }
    return owned;
  }

  /// \brief Starts a transition toward `ring` at `epoch` (must exceed
  /// the committed epoch; a lower or equal one is ignored and returns
  /// false, which de-duplicates repeated heartbeat announcements).
  bool SetPending(ShardRing ring, uint64_t epoch) {
    MutexLock lock(mu_);
    if (epoch <= epoch_) return false;
    if (pending_ != nullptr && pending_epoch_ >= epoch) return false;
    pending_ = std::make_shared<const ShardRing>(std::move(ring));
    pending_epoch_ = epoch;
    return true;
  }

  void ClearPending() {
    MutexLock lock(mu_);
    pending_ = nullptr;
    pending_epoch_ = 0;
  }

  /// \brief Promotes pending to committed (no-op snapshot of the current
  /// committed state when no transition is in flight).
  Snapshot Commit() {
    MutexLock lock(mu_);
    if (pending_ != nullptr) {
      committed_ = std::move(pending_);
      epoch_ = pending_epoch_;
      pending_ = nullptr;
      pending_epoch_ = 0;
    }
    return Snapshot{committed_, epoch_};
  }

  /// \brief Installs `ring` as committed at `epoch` directly — how a
  /// follower adopts the coordinator's announcement.  Only a strictly
  /// higher epoch wins (returns false otherwise); a pending transition
  /// at or below the adopted epoch is cleared as resolved.
  bool Adopt(ShardRing ring, uint64_t epoch) {
    MutexLock lock(mu_);
    if (epoch <= epoch_) return false;
    committed_ = std::make_shared<const ShardRing>(std::move(ring));
    epoch_ = epoch;
    if (pending_ != nullptr && pending_epoch_ <= epoch) {
      pending_ = nullptr;
      pending_epoch_ = 0;
    }
    return true;
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const ShardRing> committed_ GUARDED_BY(mu_);
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  std::shared_ptr<const ShardRing> pending_ GUARDED_BY(mu_);
  uint64_t pending_epoch_ GUARDED_BY(mu_) = 0;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_PLACEMENT_H_
