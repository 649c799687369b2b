#include "cluster/rebalance.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace cluster {

Rebalancer::Rebalancer(const ClusterConfig& config, const NodeSpec& self,
                       CallTable& calls, PlacementState& placement,
                       const MembershipTracker& membership,
                       Heartbeats& heartbeats, ShardServer& shards,
                       RepairPuller& repair, ClusterTableSource* source,
                       const ClusterTableSink* sink)
    : config_(config),
      self_(self),
      calls_(calls),
      placement_(placement),
      membership_(membership),
      heartbeats_(heartbeats),
      shards_(shards),
      repair_(repair),
      source_(source),
      sink_(sink) {}

Result<ShardRing> Rebalancer::RingOf(std::vector<std::string> nodes) const {
  std::sort(nodes.begin(), nodes.end());
  return ShardRing::Build(std::move(nodes), config_.shard_count,
                          config_.vnodes, config_.replication);
}

Result<uint64_t> Rebalancer::StartJoin(const std::string& id,
                                       const std::string& host_port) {
  if (self_.role != NodeRole::kCoordinator) {
    return Status::FailedPrecondition(
        "only the coordinator starts a rebalance");
  }
  if (id == self_.id || membership_.Contains(id)) {
    return Status::InvalidArgument("node '" + id +
                                   "' is already on the roster");
  }
  if (host_port.empty()) {
    return Status::InvalidArgument("join needs the node's host:port");
  }
  std::vector<std::string> nodes = placement_.Committed().ring->storage_nodes();
  nodes.push_back(id);
  HYP_ASSIGN_OR_RETURN(ShardRing next, RingOf(std::move(nodes)));
  // Route to the joiner before announcing it, so its heartbeats and
  // handoff acks flow the moment anyone learns the pending ring.
  heartbeats_.SetAddress(id, host_port);
  return BeginTransition(std::move(next), "join", id);
}

Result<uint64_t> Rebalancer::StartDecommission(const std::string& id) {
  if (self_.role != NodeRole::kCoordinator) {
    return Status::FailedPrecondition(
        "only the coordinator starts a rebalance");
  }
  std::vector<std::string> nodes = placement_.Committed().ring->storage_nodes();
  auto it = std::find(nodes.begin(), nodes.end(), id);
  if (it == nodes.end()) {
    return Status::NotFound("node '" + id + "' is not on the storage ring");
  }
  nodes.erase(it);
  if (nodes.empty()) {
    return Status::FailedPrecondition(
        "cannot decommission the last storage node");
  }
  HYP_ASSIGN_OR_RETURN(ShardRing next, RingOf(std::move(nodes)));
  return BeginTransition(std::move(next), "decommission", id);
}

Result<uint64_t> Rebalancer::BeginTransition(ShardRing next,
                                             const std::string& verb,
                                             const std::string& subject) {
  const PlacementState::Snapshot committed = placement_.Committed();
  const uint64_t epoch = committed.epoch + 1;
  std::vector<ShardMove> moves = ShardRing::Diff(*committed.ring, next);
  // Every gained shard needs an alive handoff source among its
  // committed owners, or the new owner could never catch up.  A
  // decommissioned node that is still alive may itself be the source;
  // one the failure detector already marked down may not.
  std::set<std::pair<uint64_t, std::string>> waiting;
  for (const ShardMove& move : moves) {
    if (move.gained.empty()) continue;
    const std::vector<std::string>& owners =
        committed.ring->OwnersForShard(move.shard);
    if (std::none_of(owners.begin(), owners.end(), [&](const auto& owner) {
          return membership_.StateOf(owner) != MemberState::kDown;
        })) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(move.shard) +
          " has no alive handoff source; refusing to " + verb + " '" +
          subject + "'");
    }
    for (const std::string& node : move.gained) {
      waiting.insert({move.shard, node});
    }
  }
  const int64_t now = calls_.now_us();
  {
    MutexLock lock(mu_);
    if (transition_ != nullptr) {
      return Status::FailedPrecondition(
          "a rebalance transition is already in flight (epoch " +
          std::to_string(transition_->epoch) + ")");
    }
    // The ledger goes in before the pending epoch is announced: a
    // handoff ack can only arrive after a heartbeat carried the pending
    // ring, which happens after SetPending below.
    transition_ = std::make_unique<Transition>();
    transition_->epoch = epoch;
    transition_->waiting = std::move(waiting);
    transition_->started_us = now;
    transition_->moves = moves.size();
  }
  if (!placement_.SetPending(std::move(next), epoch)) {
    MutexLock lock(mu_);
    transition_.reset();
    return Status::FailedPrecondition("placement refused pending epoch " +
                                      std::to_string(epoch));
  }
  SyncRosterToPlacement(/*drop_unowned=*/false);
  obs::MetricRegistry::Default()
      .GetCounter("cluster.rebalance.started")
      ->Add();
  obs::RecordEvent(self_.id, "cluster.rebalance.started",
                   verb + " '" + subject + "' -> epoch " +
                       std::to_string(epoch) + " (" +
                       std::to_string(moves.size()) + " moves)",
                   static_cast<int64_t>(epoch));
  heartbeats_.SendHeartbeats();
  // A transition that moves nothing (or only sheds replicas) commits as
  // soon as something notices the empty ledger.
  MaybeCommitEpoch();
  return epoch;
}

void Rebalancer::SyncRosterToPlacement(bool drop_unowned) {
  const PlacementState::Snapshot committed = placement_.Committed();
  const PlacementState::Snapshot pending = placement_.Pending();
  std::set<std::string> roster(committed.ring->storage_nodes().begin(),
                               committed.ring->storage_nodes().end());
  if (pending.ring != nullptr) {
    roster.insert(pending.ring->storage_nodes().begin(),
                  pending.ring->storage_nodes().end());
  }
  for (const NodeSpec& node : config_.nodes) {
    if (node.role == NodeRole::kCoordinator) roster.insert(node.id);
  }
  roster.erase(self_.id);
  heartbeats_.SetRoster(std::move(roster));
  if (drop_unowned) shards_.DropUnowned();
}

void Rebalancer::AdoptFromHeartbeat(const HeartbeatMsg& hb) {
  if (!hb.ring_nodes.empty() && hb.ring_epoch > placement_.epoch()) {
    Result<ShardRing> ring = RingOf(hb.ring_nodes);
    if (ring.ok() &&
        placement_.Adopt(std::move(ring.value()), hb.ring_epoch)) {
      // Adoption resolves any pending transition at or below the new
      // epoch; a handoff pull still running for it ends on its own, and
      // HandleHandoffRows drops its reply without a pending ring.
      SyncRosterToPlacement(/*drop_unowned=*/true);
      obs::MetricRegistry::Default()
          .GetCounter("cluster.epoch.adopted")
          ->Add();
      obs::RecordEvent(self_.id, "cluster.epoch.adopted",
                       "epoch " + std::to_string(hb.ring_epoch) + " from " +
                           hb.node + " (" +
                           std::to_string(hb.ring_nodes.size()) +
                           " storage nodes)",
                       static_cast<int64_t>(hb.ring_epoch));
    }
  }
  if (!hb.pending_nodes.empty() && hb.pending_epoch > placement_.epoch()) {
    Result<ShardRing> ring = RingOf(hb.pending_nodes);
    if (ring.ok() &&
        placement_.SetPending(std::move(ring.value()), hb.pending_epoch)) {
      // Joining members enter the roster now (their heartbeats must be
      // heard); leavers stay until the epoch commits.
      SyncRosterToPlacement(/*drop_unowned=*/false);
      MaybeHandoff();
    }
  }
}

void Rebalancer::MaybeHandoff() {
  if (self_.role != NodeRole::kStorage) return;
  const PlacementState::Snapshot pending = placement_.Pending();
  if (pending.ring == nullptr) return;
  const PlacementState::Snapshot committed = placement_.Committed();
  std::vector<uint64_t> current = committed.ring->ShardsOwnedBy(self_.id);
  std::set<uint64_t> have(current.begin(), current.end());
  for (uint64_t shard : pending.ring->ShardsOwnedBy(self_.id)) {
    if (have.find(shard) != have.end()) continue;  // already a replica
    // One pull per shard; one that timed out has ended, so the next pass
    // pulls again (possibly elsewhere).
    if (calls_.Busy(ShardPullKey("handoff", shard))) continue;
    // The source: the first committed owner the failure detector does
    // not call down.
    std::string source;
    for (const std::string& owner : committed.ring->OwnersForShard(shard)) {
      if (membership_.StateOf(owner) != MemberState::kDown) {
        source = owner;
        break;
      }
    }
    if (source.empty()) continue;
    obs::MetricRegistry::Default()
        .GetCounter("cluster.rebalance.handoff_fetches")
        ->Add();
    CallSpec spec;
    spec.phase = "handoff pull of shard " + std::to_string(shard);
    spec.key = ShardPullKey("handoff", shard);
    spec.candidates = {source};
    spec.attempt_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    spec.request = [this, shard, epoch = pending.epoch](
                       uint64_t id, const std::string& to) {
      HandoffFetchMsg fetch;
      fetch.request_id = id;
      fetch.node = self_.id;
      fetch.shard = shard;
      fetch.ring_epoch = epoch;
      return Message{self_.id, to, std::move(fetch)};
    };
    calls_.Start(std::move(spec));
  }
}

void Rebalancer::HandleHandoffRows(const Message& msg, bool matched) {
  const auto& rows = std::get<HandoffRowsMsg>(msg.payload);
  if (!rows.error.empty()) {
    // Only the reply to the live pull may fail it; a late error belongs
    // to a pull that already ended.
    if (matched) {
      obs::MetricRegistry::Default()
          .GetCounter("cluster.rebalance.handoff_failures")
          ->Add();
    }
    return;  // the next handoff pass re-pulls (possibly elsewhere)
  }
  // Successful snapshots install even when their pull already timed out
  // (`matched` false): the payload is complete, version-stamped
  // committed state, installs are idempotent, and the coordinator
  // max-merges duplicate acks.  Dropping late replies would livelock a
  // slow environment where every round trip exceeds replica_timeout_ms —
  // each retry restarts the same too-small budget and no reply is ever
  // current by the time it lands.
  const PlacementState::Snapshot pending = placement_.Pending();
  if (pending.ring == nullptr) return;  // transition resolved meanwhile
  const uint64_t installed_rows = shards_.InstallHandoff(rows);
  obs::RecordEvent(self_.id, "cluster.rebalance.handoff",
                   "shard " + std::to_string(rows.shard) + " v" +
                       std::to_string(rows.shard_version) + " (" +
                       std::to_string(rows.slices.size()) + " tables, " +
                       std::to_string(installed_rows) + " rows) from " +
                       msg.from,
                   static_cast<int64_t>(rows.shard));
  Result<NodeSpec> coordinator = config_.Coordinator();
  if (coordinator.ok()) {
    HandoffAckMsg ack;
    ack.request_id = rows.request_id;
    ack.node = self_.id;
    ack.shard = rows.shard;
    ack.shard_version = shards_.write_log().VersionOf(rows.shard);
    ack.rows = installed_rows;
    ack.ring_epoch = pending.epoch;
    shards_.SendReply(Message{self_.id, coordinator.value().id, std::move(ack)},
                      "HandleHandoffRows");
  }
  // Writes that landed on the old owners after the snapshot are above
  // the floor now — chain anti-entropy to pull them.
  repair_.MaybeRepair(static_cast<int64_t>(rows.shard));
}

void Rebalancer::HandleHandoffAck(const Message& msg) {
  const auto& ack = std::get<HandoffAckMsg>(msg.payload);
  if (self_.role != NodeRole::kCoordinator) return;
  bool counted = false;
  {
    MutexLock lock(mu_);
    if (transition_ == nullptr || transition_->epoch != ack.ring_epoch) {
      return;
    }
    const auto key = std::make_pair(ack.shard, ack.node);
    if (transition_->waiting.erase(key) != 0) {
      transition_->acked[key] = ack.shard_version;
      handoff_rows_[ack.node][ack.shard] = ack.rows;
      counted = true;
    } else {
      // Duplicate ack after a re-pull: keep the freshest version.
      auto it = transition_->acked.find(key);
      if (it != transition_->acked.end()) {
        it->second = std::max(it->second, ack.shard_version);
      }
    }
  }
  if (counted) {
    obs::MetricRegistry::Default()
        .GetCounter("cluster.rebalance.rows_shipped")
        ->Add(ack.rows);
  }
  MaybeCommitEpoch();
}

void Rebalancer::MaybeCommitEpoch() {
  if (self_.role != NodeRole::kCoordinator) return;
  // The sink's, the placement's and the heartbeats' mutexes are leaves
  // like mu_: everything they guard is read with mu_ released.
  const uint64_t committed_seq =
      sink_ != nullptr ? sink_->committed_sequence() : 0;
  const int64_t now = calls_.now_us();
  std::map<std::pair<uint64_t, std::string>, uint64_t> acked;
  uint64_t epoch = 0;
  {
    MutexLock lock(mu_);
    if (transition_ == nullptr || !transition_->waiting.empty()) return;
    acked = transition_->acked;
    epoch = transition_->epoch;
  }
  for (const auto& [key, acked_version] : acked) {
    // The gained owner must have caught up to every write committed so
    // far — via the handoff snapshot or anti-entropy since; its
    // heartbeat-advertised version may run ahead of the ack's.
    const uint64_t have = std::max(
        acked_version, heartbeats_.AdvertisedVersion(key.second, key.first));
    if (have < committed_seq) return;
  }
  size_t moves = 0;
  int64_t started_us = 0;
  {
    // Acks only raise versions, so the gate still holds — unless a
    // concurrent pass already committed this transition.
    MutexLock lock(mu_);
    if (transition_ == nullptr || transition_->epoch != epoch) return;
    moves = transition_->moves;
    started_us = transition_->started_us;
    transition_.reset();
  }
  // Bookkeeping before Commit(): the moment the epoch flips, observers
  // polling the committed snapshot must already find the transition
  // counted — counting after would open a window where the new epoch is
  // visible but cluster.rebalance.committed still reads the old total.
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  reg.GetCounter("cluster.rebalance.committed")->Add();
  reg.GetHistogram("cluster.rebalance.convergence_us", obs::LatencyBoundsUs())
      ->Observe(now - started_us);
  obs::RecordEvent(self_.id, "cluster.rebalance.committed",
                   "epoch " + std::to_string(epoch) + " (" +
                       std::to_string(moves) + " moves, " +
                       std::to_string(now - started_us) + " us)",
                   static_cast<int64_t>(epoch));
  placement_.Commit();
  // Leavers drop off the roster; cached assemblies resolved under the
  // old ring are dropped so the next fetch routes to the new owners.
  SyncRosterToPlacement(/*drop_unowned=*/true);
  if (source_ != nullptr) source_->Evict();
  // Announce the commit immediately instead of waiting out a beat.
  heartbeats_.SendHeartbeats();
}

void Rebalancer::MaybeAutoDecommission(
    const std::vector<MemberInfo>& members) {
  if (self_.role != NodeRole::kCoordinator) return;
  if (config_.decommission_after_ms == 0) return;
  if (placement_.HasPending()) return;
  const PlacementState::Snapshot committed = placement_.Committed();
  const std::vector<std::string>& storage = committed.ring->storage_nodes();
  const int64_t deadline_us =
      static_cast<int64_t>(config_.down_ms + config_.decommission_after_ms) *
      1000;
  const int64_t now = calls_.now_us();
  for (const MemberInfo& member : members) {
    if (member.state != MemberState::kDown) continue;
    if (member.last_heard_us == 0) continue;  // never launched
    if (now - member.last_heard_us < deadline_us) continue;
    if (std::find(storage.begin(), storage.end(), member.node) ==
        storage.end()) {
      continue;
    }
    Result<uint64_t> epoch = StartDecommission(member.node);
    // e.g. no alive handoff source left: skip, retried next sweep.
    if (!epoch.ok()) continue;
    obs::MetricRegistry::Default()
        .GetCounter("cluster.rebalance.auto_decommissions")
        ->Add();
    obs::RecordEvent(self_.id, "cluster.rebalance.auto_decommission",
                     "node '" + member.node + "' silent " +
                         std::to_string((now - member.last_heard_us) / 1000) +
                         " ms -> epoch " + std::to_string(epoch.value()),
                     static_cast<int64_t>(epoch.value()));
    return;  // one transition at a time
  }
}

std::map<std::string, std::map<uint64_t, uint64_t>>
Rebalancer::HandoffRowsInstalled() const {
  MutexLock lock(mu_);
  return handoff_rows_;
}

}  // namespace cluster
}  // namespace hyperion
