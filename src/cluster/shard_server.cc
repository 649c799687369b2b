#include "cluster/shard_server.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace cluster {

namespace {

// Every reply payload carries its failure the same way.
template <typename Reply>
void SetError(Reply* reply, const Status& status) {
  reply->error = status.message();
  reply->error_code = static_cast<int32_t>(status.code());
}

Status NotStorage(const NodeSpec& self) {
  return Status::FailedPrecondition("node '" + self.id +
                                    "' is not a storage node");
}

Status StaleEpoch(const NodeSpec& self, uint64_t theirs, uint64_t ours) {
  return Status::FailedPrecondition(
      "stale ring epoch " + std::to_string(theirs) + " (node '" + self.id +
      "' is at " + std::to_string(ours) + ")");
}

}  // namespace

ShardServer::ShardServer(const NodeSpec& self, Network& net,
                         const PlacementState& placement)
    : self_(self), net_(net), placement_(placement) {}

Status ShardServer::Load(const TableStore& store,
                         const std::string& write_log_dir,
                         uint64_t shard_count) {
  // Every shard this node replicates, primary or not: replicas must
  // hold the slice to take over when the primary dies.  The slicing
  // lambda keeps its own ring snapshot — an epoch adopted later
  // re-routes fetches, not this one-time load.
  std::shared_ptr<const ShardRing> ring = placement_.Committed().ring;
  HYP_ASSIGN_OR_RETURN(
      slices_,
      SliceStore(
          store,
          [ring](const std::string& key) { return ring->ShardForKey(key); },
          ring->ShardsOwnedBy(self_.id)));
  if (write_log_dir.empty()) return Status::OK();
  // Replay the writes a previous incarnation applied: entries per shard
  // in version order (stepping over burned sequences the log never
  // held), so the final per-(table, shard) state is each table's latest
  // slice.
  HYP_RETURN_IF_ERROR(write_log_.Open(write_log_dir, shard_count));
  for (const auto& [shard, latest] : write_log_.Versions()) {
    uint64_t v = 0;
    while (v < latest) {
      Result<WriteSliceMsg> entry = write_log_.EntryAfter(shard, v);
      if (!entry.ok()) {
        // NotFound is the loop's normal exit: nothing persisted above v
        // (the tail was burned sequences).  Anything else — an
        // unreadable or corrupt entry — must fail Start() loudly, not
        // silently serve a truncated replay as current state.
        if (entry.status().code() == StatusCode::kNotFound) break;
        return entry.status();
      }
      InstallSlice(entry.value());
      v = entry.value().shard_version;
    }
  }
  return Status::OK();
}

void ShardServer::HandleShardFetch(const Message& msg) {
  const auto& fetch = std::get<ShardFetchMsg>(msg.payload);
  const PlacementState::Snapshot committed = placement_.Committed();
  ShardRowsMsg reply;
  reply.request_id = fetch.request_id;
  reply.table_name = fetch.table_name;
  reply.node = self_.id;
  reply.shard = fetch.shard;
  reply.ring_epoch = committed.epoch;
  if (self_.role != NodeRole::kStorage) {
    SetError(&reply, NotStorage(self_));
  } else if (fetch.ring_epoch != 0 && fetch.ring_epoch < committed.epoch) {
    // The fetcher resolved placement under a ring this node has already
    // replaced — its owner choice is unreliable (this node may have
    // dropped the slice at the commit).  Reject loudly; the coordinator
    // re-resolves and refetches.
    SetError(&reply, StaleEpoch(self_, fetch.ring_epoch, committed.epoch));
    obs::MetricRegistry::Default()
        .GetCounter("cluster.epoch.stale_rejected")
        ->Add();
    obs::RecordEvent(self_.id, "cluster.epoch.stale",
                     "fetch " + fetch.table_name + "#" +
                         std::to_string(fetch.shard) + " at epoch " +
                         std::to_string(fetch.ring_epoch) + " < " +
                         std::to_string(committed.epoch) + " from " + msg.from,
                     static_cast<int64_t>(fetch.ring_epoch));
  } else if (auto it = slices_.find({fetch.table_name, fetch.shard});
             it == slices_.end()) {
    // Replica-aware ownership: any member of the shard's replica set
    // may legitimately serve it.
    bool replicates = false;
    if (fetch.shard < committed.ring->shard_count()) {
      const std::vector<std::string>& owners =
          committed.ring->OwnersForShard(fetch.shard);
      replicates =
          std::find(owners.begin(), owners.end(), self_.id) != owners.end();
    }
    SetError(&reply, !replicates
                         ? Status::FailedPrecondition(
                               "node '" + self_.id +
                               "' does not replicate shard " +
                               std::to_string(fetch.shard))
                         : Status::NotFound("node '" + self_.id +
                                            "' has no table '" +
                                            fetch.table_name + "'"));
  } else {
    const ShardSlice& slice = it->second;
    reply.version = slice.version;
    reply.total_rows = slice.total_rows;
    reply.x_schema = slice.x_schema;
    reply.y_schema = slice.y_schema;
    reply.row_indices = slice.row_indices;
    reply.rows = slice.rows;
    obs::MetricRegistry::Default()
        .GetCounter("cluster.shard_rows_served")
        ->Add(slice.rows.size());
  }
  SendReply(Message{self_.id, msg.from, std::move(reply)},
            "HandleShardFetch");
}

void ShardServer::SendReply(Message out, const char* context) {
  const std::string to = out.to;
  Status sent = net_.Send(std::move(out));
  if (sent.ok()) return;
  // The requester will recover by timeout/retry/anti-entropy, but a
  // dropped reply is indistinguishable from this node being down — make
  // the drop observable instead of swallowing the Status.
  obs::MetricRegistry::Default()
      .GetCounter("cluster.reply.send_failures")
      ->Add();
  obs::RecordEvent(self_.id, "cluster.reply.send_failure",
                   std::string(context) + " reply to '" + to + "': " +
                       sent.ToString());
}

void ShardServer::InstallSlice(const WriteSliceMsg& slice) {
  ShardSlice installed;
  installed.table_name = slice.table_name;
  installed.shard = slice.shard;
  installed.version = slice.table_version;
  installed.total_rows = slice.total_rows;
  installed.x_schema = slice.x_schema;
  installed.y_schema = slice.y_schema;
  installed.row_indices = slice.row_indices;
  installed.rows = slice.rows;
  slices_[{slice.table_name, slice.shard}] = std::move(installed);
}

Result<ApplyOutcome> ShardServer::ApplyWriteSlice(const WriteSliceMsg& slice) {
  uint64_t current = write_log_.VersionOf(slice.shard);
  if (slice.shard_version <= current) return ApplyOutcome::kDuplicate;
  // A gap above the slice's committed floor holds only sequences burned
  // by failed writes — the slice is full shard state, so jumping them
  // loses nothing.  Below the floor the replica is missing committed
  // writes (possibly of other tables): applying would skip them forever,
  // since the shard version would advance past what repair compares.
  if (current < slice.committed_floor) return ApplyOutcome::kStale;
  HYP_RETURN_IF_ERROR(write_log_.Append(slice));
  InstallSlice(slice);
  return ApplyOutcome::kApplied;
}

void ShardServer::HandleWriteSlice(const Message& msg) {
  const auto& slice = std::get<WriteSliceMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  WriteAckMsg ack;
  ack.request_id = slice.request_id;
  ack.node = self_.id;
  ack.shard = slice.shard;
  ack.ring_epoch = placement_.epoch();
  if (self_.role != NodeRole::kStorage) {
    SetError(&ack, NotStorage(self_));
  } else {
    // No epoch gate here, deliberately: a write racing an epoch commit
    // is stamped with the just-replaced epoch, and rejecting it would
    // fail its quorum for no safety gain — shard-version monotonicity
    // and the committed floor already reject every unsafe application
    // (DESIGN.md §15).
    Result<ApplyOutcome> outcome = ApplyWriteSlice(slice);
    if (!outcome.ok()) {
      SetError(&ack, outcome.status());
    } else if (outcome.value() == ApplyOutcome::kStale) {
      // This replica missed committed writes; anti-entropy must fill
      // the gap before this slice can land.  The coordinator sees
      // applied=0 and retries (or commits on quorum without us).
      reg.GetCounter("cluster.write.stale_rejected")->Add();
      obs::RecordEvent(self_.id, "cluster.write.stale",
                       slice.table_name + "#" + std::to_string(slice.shard) +
                           " offered v" + std::to_string(slice.shard_version) +
                           " (floor v" + std::to_string(slice.committed_floor) +
                           ") at v" +
                           std::to_string(write_log_.VersionOf(slice.shard)),
                       static_cast<int64_t>(slice.shard));
      SetError(&ack, Status::FailedPrecondition(
                         "replica '" + self_.id + "' is stale on shard " +
                         std::to_string(slice.shard)));
    } else {
      ack.applied = 1;
      reg.GetCounter(outcome.value() == ApplyOutcome::kApplied
                         ? "cluster.write.applied"
                         : "cluster.write.duplicates")
          ->Add();
    }
    ack.shard_version = write_log_.VersionOf(slice.shard);
  }
  SendReply(Message{self_.id, msg.from, std::move(ack)}, "HandleWriteSlice");
}

void ShardServer::HandleRepairFetch(const Message& msg) {
  const auto& fetch = std::get<RepairFetchMsg>(msg.payload);
  // The oldest entry above the requester's version: steps over burned
  // sequences this log never held.
  Result<WriteSliceMsg> entry =
      write_log_.EntryAfter(fetch.shard, fetch.from_version);
  WriteSliceMsg reply;
  if (entry.ok()) {
    reply = std::move(entry.value());
    obs::MetricRegistry::Default()
        .GetCounter("cluster.repair.entries_served")
        ->Add();
  } else {
    reply.shard = fetch.shard;
    SetError(&reply, entry.status());
  }
  reply.request_id = fetch.request_id;
  reply.origin = self_.id;
  reply.repair = 1;
  SendReply(Message{self_.id, msg.from, std::move(reply)},
            "HandleRepairFetch");
}

void ShardServer::HandleHandoffFetch(const Message& msg) {
  const auto& fetch = std::get<HandoffFetchMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t epoch = placement_.epoch();
  HandoffRowsMsg reply;
  reply.request_id = fetch.request_id;
  reply.node = self_.id;
  reply.shard = fetch.shard;
  if (self_.role != NodeRole::kStorage) {
    SetError(&reply, NotStorage(self_));
  } else if (fetch.ring_epoch != 0 && fetch.ring_epoch < epoch) {
    // The puller is converging on a transition this node has already
    // seen committed (or superseded) — its snapshot request is moot.
    SetError(&reply, StaleEpoch(self_, fetch.ring_epoch, epoch));
    reg.GetCounter("cluster.epoch.stale_rejected")->Add();
    obs::RecordEvent(self_.id, "cluster.epoch.stale",
                     "handoff fetch shard " + std::to_string(fetch.shard) +
                         " at epoch " + std::to_string(fetch.ring_epoch) +
                         " < " + std::to_string(epoch) + " from " + msg.from,
                     static_cast<int64_t>(fetch.ring_epoch));
  } else {
    // Full shard state: one slice per served table, all stamped with
    // this log's current version, which the receiver adopts as its
    // write-log floor.  Anti-entropy covers anything newer.
    reply.shard_version = write_log_.VersionOf(fetch.shard);
    for (const auto& [key, slice] : slices_) {
      if (key.second != fetch.shard) continue;
      WriteSliceMsg ws;
      ws.origin = self_.id;
      ws.table_name = key.first;
      ws.shard = fetch.shard;
      ws.shard_version = reply.shard_version;
      ws.table_version = slice.version;
      ws.total_rows = slice.total_rows;
      ws.x_schema = slice.x_schema;
      ws.y_schema = slice.y_schema;
      ws.row_indices = slice.row_indices;
      ws.rows = slice.rows;
      ws.ring_epoch = epoch;
      reply.slices.push_back(std::move(ws));
    }
    reg.GetCounter("cluster.rebalance.handoff_served")->Add();
  }
  SendReply(Message{self_.id, msg.from, std::move(reply)},
            "HandleHandoffFetch");
}

uint64_t ShardServer::InstallHandoff(const HandoffRowsMsg& rows) {
  if (write_log_.VersionOf(rows.shard) > rows.shard_version) return 0;
  // The slices are full shard state at the source's write-log version —
  // installed directly (several tables share one version, which a log
  // Append per table would violate); the floor adopts the version so
  // later writes and anti-entropy chain from it.
  uint64_t installed_rows = 0;
  for (const WriteSliceMsg& ws : rows.slices) {
    InstallSlice(ws);
    installed_rows += ws.rows.size();
  }
  write_log_.SetFloor(rows.shard, rows.shard_version);
  return installed_rows;
}

void ShardServer::DropUnowned() {
  if (self_.role != NodeRole::kStorage) return;
  // Shards this node no longer replicates stop being served; the
  // coordinator's next fetch re-resolves onto the new owners.  The union
  // with pending keeps handoff-installed slices alive while a further
  // transition is still converging.
  const std::set<uint64_t> owned = placement_.ShardsOwnedBy(self_.id);
  for (auto it = slices_.begin(); it != slices_.end();) {
    if (owned.find(it->first.second) == owned.end()) {
      it = slices_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace cluster
}  // namespace hyperion
