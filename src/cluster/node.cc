#include "cluster/node.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace cluster {

namespace {

// The key of the one repair or handoff pull a shard may have running.
std::string PullKey(const char* kind, uint64_t shard) {
  return std::string(kind).append("#").append(std::to_string(shard));
}

}  // namespace

Result<std::unique_ptr<ClusterNode>> ClusterNode::Create(ClusterConfig config,
                                                         std::string self,
                                                         TableStore store) {
  HYP_RETURN_IF_ERROR(config.Validate());
  HYP_ASSIGN_OR_RETURN(NodeSpec self_spec, config.NodeById(self));
  HYP_ASSIGN_OR_RETURN(
      ShardRing ring,
      ShardRing::Build(config.StorageNodeIds(), config.shard_count,
                       config.vnodes, config.replication));
  return std::unique_ptr<ClusterNode>(new ClusterNode(
      std::move(config), std::move(self_spec), std::move(store),
      std::move(ring)));
}

ClusterNode::ClusterNode(ClusterConfig config, NodeSpec self_spec,
                         TableStore store, ShardRing ring)
    : config_(std::move(config)),
      self_spec_(std::move(self_spec)),
      store_(std::move(store)),
      // The coordinator is the epoch authority: it mints epoch 1 for the
      // config-time ring; everyone else starts at 0 and adopts the
      // committed epoch from the first heartbeat that announces one.
      placement_(std::move(ring),
                 self_spec_.role == NodeRole::kCoordinator ? 1 : 0),
      membership_(
          self_spec_.id,
          [this] {
            std::vector<std::string> roster;
            for (const NodeSpec& node : config_.nodes) {
              if (node.id != self_spec_.id) roster.push_back(node.id);
            }
            return roster;
          }(),
          static_cast<int64_t>(config_.suspect_ms) * 1000,
          static_cast<int64_t>(config_.down_ms) * 1000),
      incarnation_(static_cast<uint64_t>(std::time(nullptr))) {
  MutexLock lock(mu_);
  for (const NodeSpec& node : config_.nodes) {
    if (node.id != self_spec_.id) roster_.insert(node.id);
  }
}

ClusterNode::~ClusterNode() { Stop(); }

Status ClusterNode::Bind() {
  {
    MutexLock lock(mu_);
    if (bound_) return Status::OK();
  }
  // Bind/Start/Stop are driver-thread calls (not concurrent with each
  // other); mu_ only shields the flags from the handler thread, so the
  // network work happens with it released (leaf rule, DESIGN.md §12).
  TcpNetwork::Options options;
  options.listen_host = self_spec_.host;
  options.base_port = self_spec_.port;
  net_ = std::make_unique<TcpNetwork>(options);
  calls_ = std::make_unique<CallTable>(self_spec_.id, net_.get());
  HYP_RETURN_IF_ERROR(net_->RegisterPeer(
      self_spec_.id, [this](const Message& msg) { HandleMessage(msg); }));
  MutexLock lock(mu_);
  bound_ = true;
  return Status::OK();
}

Result<uint16_t> ClusterNode::ListenPort() const {
  {
    MutexLock lock(mu_);
    if (!bound_) return Status::FailedPrecondition("node is not bound");
  }
  return net_->ListenPort(self_spec_.id);
}

Status ClusterNode::WritePortFile(const std::string& path) const {
  HYP_ASSIGN_OR_RETURN(uint16_t port, ListenPort());
  // Write-then-rename: a poller never reads a half-written file.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IoError("cannot write port file '" + tmp + "'");
    out << port << "\n";
    if (!out.flush()) {
      return Status::IoError("cannot flush port file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot publish port file '" + path + "'");
  }
  return Status::OK();
}

Status ClusterNode::Start() {
  {
    MutexLock lock(mu_);
    if (!bound_) return Status::FailedPrecondition("Bind() before Start()");
    if (running_) return Status::OK();
  }
  if (self_spec_.role == NodeRole::kStorage) {
    // Every shard this node replicates, primary or not: replicas must
    // hold the slice to take over when the primary dies.  The slicing
    // lambda keeps its own ring snapshot — an epoch adopted later
    // re-routes fetches, not this one-time load.
    std::shared_ptr<const ShardRing> ring = placement_.Committed().ring;
    std::vector<uint64_t> owned = ring->ShardsOwnedBy(self_spec_.id);
    HYP_ASSIGN_OR_RETURN(
        slices_,
        SliceStore(
            store_,
            [ring](const std::string& key) { return ring->ShardForKey(key); },
            owned));
    if (!write_log_dir_.empty()) {
      // Replay the writes a previous incarnation applied: entries per
      // shard in version order (stepping over burned sequences the log
      // never held), so the final per-(table, shard) state is each
      // table's latest slice.  The loop has not started; slices_ is
      // still driver-thread-only.
      HYP_RETURN_IF_ERROR(
          write_log_.Open(write_log_dir_, config_.shard_count));
      for (const auto& [shard, latest] : write_log_.Versions()) {
        uint64_t v = 0;
        while (v < latest) {
          Result<WriteSliceMsg> entry = write_log_.EntryAfter(shard, v);
          if (!entry.ok()) {
            // NotFound is the loop's normal exit: nothing persisted
            // above v (the tail was burned sequences).  Anything else —
            // an unreadable or corrupt entry — must fail Start() loudly,
            // not silently serve a truncated replay as current state.
            if (entry.status().code() == StatusCode::kNotFound) break;
            return entry.status();
          }
          InstallSlice(entry.value());
          v = entry.value().shard_version;
        }
      }
    }
  } else {
    ClusterTableSource::Options opts;
    opts.fetch_timeout_us =
        static_cast<int64_t>(config_.fetch_timeout_ms) * 1000;
    opts.replica_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    opts.backoff_base_us =
        static_cast<int64_t>(config_.fetch_backoff_ms) * 1000;
    opts.hedge_delay_us = static_cast<int64_t>(config_.hedge_ms) * 1000;
    opts.attempts_per_replica = static_cast<int>(config_.fetch_attempts);
    table_source_ = std::make_unique<ClusterTableSource>(
        calls_.get(), &placement_, &membership_, opts);
    ClusterTableSink::Options wopts;
    wopts.write_timeout_us =
        static_cast<int64_t>(config_.write_timeout_ms) * 1000;
    wopts.replica_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    wopts.backoff_base_us =
        static_cast<int64_t>(config_.write_backoff_ms) * 1000;
    wopts.attempts_per_replica = static_cast<int>(config_.write_attempts);
    wopts.quorum = config_.write_quorum;
    table_sink_ = std::make_unique<ClusterTableSink>(
        calls_.get(), &placement_, &membership_, wopts);
  }
  std::vector<std::pair<std::string, std::string>> routes;
  {
    MutexLock lock(mu_);
    for (const NodeSpec& node : config_.nodes) {
      if (node.id == self_spec_.id) continue;
      auto it = known_addrs_.find(node.id);
      if (it != known_addrs_.end()) {
        routes.emplace_back(node.id, it->second);
      } else if (node.port != 0) {
        known_addrs_[node.id] = node.Address();
        routes.emplace_back(node.id, node.Address());
      }
      // Port-0 peers without a learned address stay unreachable until a
      // heartbeat from them tells us where they landed.
    }
    running_ = true;
  }
  // mu_ is a leaf (DESIGN.md §12): network calls happen with it released.
  for (const auto& [id, addr] : routes) net_->SetRemotePeer(id, addr);
  HYP_RETURN_IF_ERROR(net_->Start());
  SendHeartbeats();
  ScheduleHeartbeat();
  ScheduleSweep();
  if (self_spec_.role == NodeRole::kStorage) ScheduleRepair();
  return Status::OK();
}

void ClusterNode::Stop() {
  Network::TimerId heartbeat = 0, sweep = 0, repair = 0;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    heartbeat = heartbeat_timer_;
    sweep = sweep_timer_;
    repair = repair_timer_;
  }
  if (heartbeat != 0) net_->CancelTimer(heartbeat);
  if (sweep != 0) net_->CancelTimer(sweep);
  if (repair != 0) net_->CancelTimer(repair);
  // A Fetch or Apply blocked on a call must not wait on timers that a
  // stopped loop never fires.
  calls_->Stop();
  net_->Stop(1'000'000);
}

void ClusterNode::SetWriteLogDir(std::string dir) {
  write_log_dir_ = std::move(dir);
}

std::map<std::string, std::map<uint64_t, uint64_t>>
ClusterNode::PeerShardVersions() const {
  MutexLock lock(mu_);
  return peer_shard_versions_;
}

std::map<std::string, std::map<uint64_t, uint64_t>>
ClusterNode::HandoffRowsInstalled() const {
  MutexLock lock(mu_);
  return handoff_rows_;
}

void ClusterNode::SetPeerAddress(const std::string& node,
                                 const std::string& host_port) {
  bool apply;
  {
    MutexLock lock(mu_);
    known_addrs_[node] = host_port;
    apply = bound_;
  }
  if (apply) net_->SetRemotePeer(node, host_port);
}

std::vector<uint64_t> ClusterNode::owned_shards() const {
  return ring()->ShardsOwnedBy(self_spec_.id);
}

bool ClusterNode::WaitAllAlive(int64_t timeout_us) {
  return net_->RunUntil([this] { return membership_.AllAlive(); },
                        timeout_us);
}

int64_t ClusterNode::NowUs() const { return net_->now_us(); }

Result<uint64_t> ClusterNode::StartJoin(const std::string& id,
                                        const std::string& host_port) {
  if (self_spec_.role != NodeRole::kCoordinator) {
    return Status::FailedPrecondition(
        "only the coordinator starts a rebalance");
  }
  if (id == self_spec_.id || membership_.Contains(id)) {
    return Status::InvalidArgument("node '" + id +
                                   "' is already on the roster");
  }
  if (host_port.empty()) {
    return Status::InvalidArgument("join needs the node's host:port");
  }
  const PlacementState::Snapshot committed = placement_.Committed();
  std::vector<std::string> nodes = committed.ring->storage_nodes();
  nodes.push_back(id);
  std::sort(nodes.begin(), nodes.end());
  HYP_ASSIGN_OR_RETURN(
      ShardRing next,
      ShardRing::Build(std::move(nodes), config_.shard_count, config_.vnodes,
                       config_.replication));
  // Route to the joiner before announcing it, so its heartbeats and
  // handoff acks flow the moment anyone learns the pending ring.
  {
    MutexLock lock(mu_);
    known_addrs_[id] = host_port;
  }
  net_->SetRemotePeer(id, host_port);
  return BeginTransition(std::move(next), "join", id);
}

Result<uint64_t> ClusterNode::StartDecommission(const std::string& id) {
  if (self_spec_.role != NodeRole::kCoordinator) {
    return Status::FailedPrecondition(
        "only the coordinator starts a rebalance");
  }
  const PlacementState::Snapshot committed = placement_.Committed();
  std::vector<std::string> nodes = committed.ring->storage_nodes();
  auto it = std::find(nodes.begin(), nodes.end(), id);
  if (it == nodes.end()) {
    return Status::NotFound("node '" + id + "' is not on the storage ring");
  }
  nodes.erase(it);
  if (nodes.empty()) {
    return Status::FailedPrecondition(
        "cannot decommission the last storage node");
  }
  HYP_ASSIGN_OR_RETURN(
      ShardRing next,
      ShardRing::Build(std::move(nodes), config_.shard_count, config_.vnodes,
                       config_.replication));
  return BeginTransition(std::move(next), "decommission", id);
}

Result<uint64_t> ClusterNode::BeginTransition(ShardRing next,
                                              const std::string& verb,
                                              const std::string& subject) {
  const PlacementState::Snapshot committed = placement_.Committed();
  const uint64_t epoch = committed.epoch + 1;
  std::vector<ShardMove> moves = ShardRing::Diff(*committed.ring, next);
  // Every gained shard needs an alive handoff source among its
  // committed owners, or the new owner could never catch up.  A
  // decommissioned node that is still alive may itself be the source;
  // one the failure detector already marked down may not.
  for (const ShardMove& move : moves) {
    if (move.gained.empty()) continue;
    bool source = false;
    for (const std::string& owner :
         committed.ring->OwnersForShard(move.shard)) {
      if (membership_.StateOf(owner) != MemberState::kDown) {
        source = true;
        break;
      }
    }
    if (!source) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(move.shard) +
          " has no alive handoff source; refusing to " + verb + " '" +
          subject + "'");
    }
  }
  std::set<std::pair<uint64_t, std::string>> waiting;
  for (const ShardMove& move : moves) {
    for (const std::string& node : move.gained) {
      waiting.insert({move.shard, node});
    }
  }
  const int64_t now = NowUs();
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
  obs::RecordEvent(self_spec_.id, "cluster.rebalance.started",
                   verb + " '" + subject + "' -> epoch " +
                       std::to_string(epoch) + " (" +
                       std::to_string(moves.size()) + " moves)",
                   static_cast<int64_t>(epoch));
  SendHeartbeats();
  // A transition that moves nothing (or only sheds replicas) commits as
  // soon as something notices the empty ledger.
  MaybeCommitEpoch();
  return epoch;
}

void ClusterNode::SyncRosterToPlacement(bool drop_unowned) {
  const PlacementState::Snapshot committed = placement_.Committed();
  const PlacementState::Snapshot pending = placement_.Pending();
  std::set<std::string> desired;
  for (const std::string& id : committed.ring->storage_nodes()) {
    desired.insert(id);
  }
  if (pending.ring != nullptr) {
    for (const std::string& id : pending.ring->storage_nodes()) {
      desired.insert(id);
    }
  }
  for (const NodeSpec& node : config_.nodes) {
    if (node.role == NodeRole::kCoordinator) desired.insert(node.id);
  }
  desired.erase(self_spec_.id);
  std::vector<std::string> added, removed;
  {
    MutexLock lock(mu_);
    for (const std::string& id : desired) {
      if (roster_.find(id) == roster_.end()) added.push_back(id);
    }
    for (const std::string& id : roster_) {
      if (desired.find(id) == desired.end()) removed.push_back(id);
    }
    roster_ = std::move(desired);
    for (const std::string& id : removed) peer_shard_versions_.erase(id);
  }
  // membership_'s mutex is its own leaf — updated with mu_ released.
  for (const std::string& id : added) membership_.AddMember(id);
  for (const std::string& id : removed) membership_.RemoveMember(id);
  if (drop_unowned && self_spec_.role == NodeRole::kStorage) {
    // Shards this node no longer replicates stop being served; the
    // coordinator's next fetch re-resolves onto the new owners.  The
    // union with pending keeps handoff-installed slices alive while a
    // further transition is still converging.
    std::set<uint64_t> owned;
    for (uint64_t shard : committed.ring->ShardsOwnedBy(self_spec_.id)) {
      owned.insert(shard);
    }
    if (pending.ring != nullptr) {
      for (uint64_t shard : pending.ring->ShardsOwnedBy(self_spec_.id)) {
        owned.insert(shard);
      }
    }
    for (auto it = slices_.begin(); it != slices_.end();) {
      if (owned.find(it->first.second) == owned.end()) {
        it = slices_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ClusterNode::HandleMessage(const Message& msg) {
  if (std::holds_alternative<HeartbeatMsg>(msg.payload)) {
    HandleHeartbeat(msg);
  } else if (std::holds_alternative<ShardFetchMsg>(msg.payload)) {
    HandleShardFetch(msg);
  } else if (const auto* rows = std::get_if<ShardRowsMsg>(&msg.payload)) {
    calls_->Deliver(rows->request_id, msg);
  } else if (const auto* slice = std::get_if<WriteSliceMsg>(&msg.payload)) {
    if (slice->repair == 0) {
      HandleWriteSlice(msg);
    } else {
      HandleRepairReply(msg, calls_->Deliver(slice->request_id, msg));
    }
  } else if (const auto* ack = std::get_if<WriteAckMsg>(&msg.payload)) {
    calls_->Deliver(ack->request_id, msg);
  } else if (std::holds_alternative<RepairFetchMsg>(msg.payload)) {
    HandleRepairFetch(msg);
  } else if (std::holds_alternative<HandoffFetchMsg>(msg.payload)) {
    HandleHandoffFetch(msg);
  } else if (const auto* handoff = std::get_if<HandoffRowsMsg>(&msg.payload)) {
    HandleHandoffRows(msg, calls_->Deliver(handoff->request_id, msg));
  } else if (std::holds_alternative<HandoffAckMsg>(msg.payload)) {
    HandleHandoffAck(msg);
  }
  // Anything else (discovery, session traffic) belongs to a query
  // service sharing the transport, not to the cluster runtime.
}

void ClusterNode::AdoptFromHeartbeat(const HeartbeatMsg& hb) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  if (!hb.ring_nodes.empty() && hb.ring_epoch > placement_.epoch()) {
    std::vector<std::string> nodes = hb.ring_nodes;
    std::sort(nodes.begin(), nodes.end());
    Result<ShardRing> ring =
        ShardRing::Build(std::move(nodes), config_.shard_count,
                         config_.vnodes, config_.replication);
    if (ring.ok() &&
        placement_.Adopt(std::move(ring.value()), hb.ring_epoch)) {
      // Adoption resolves any pending transition at or below the new
      // epoch; a handoff pull still running for it ends on its own, and
      // HandleHandoffRows drops its reply without a pending ring.
      SyncRosterToPlacement(/*drop_unowned=*/true);
      reg.GetCounter("cluster.epoch.adopted")->Add();
      obs::RecordEvent(self_spec_.id, "cluster.epoch.adopted",
                       "epoch " + std::to_string(hb.ring_epoch) + " from " +
                           hb.node + " (" +
                           std::to_string(hb.ring_nodes.size()) +
                           " storage nodes)",
                       static_cast<int64_t>(hb.ring_epoch));
    }
  }
  if (!hb.pending_nodes.empty() && hb.pending_epoch > placement_.epoch()) {
    std::vector<std::string> nodes = hb.pending_nodes;
    std::sort(nodes.begin(), nodes.end());
    Result<ShardRing> ring =
        ShardRing::Build(std::move(nodes), config_.shard_count,
                         config_.vnodes, config_.replication);
    if (ring.ok() &&
        placement_.SetPending(std::move(ring.value()), hb.pending_epoch)) {
      // Joining members enter the roster now (their heartbeats must be
      // heard); leavers stay until the epoch commits.
      SyncRosterToPlacement(/*drop_unowned=*/false);
      if (self_spec_.role == NodeRole::kStorage) MaybeHandoff();
    }
  }
}

void ClusterNode::HandleHeartbeat(const Message& msg) {
  const auto& hb = std::get<HeartbeatMsg>(msg.payload);
  // Epoch adoption first: the announcement may put the sender (a
  // joining node heard of via the pending ring) onto the roster the
  // rest of this handler is gated by.
  AdoptFromHeartbeat(hb);
  bool in_roster;
  {
    MutexLock lock(mu_);
    in_roster = roster_.find(hb.node) != roster_.end();
  }
  if (!in_roster) return;
  membership_.Observe(hb.node, NowUs());
  if (!hb.shards.empty() && hb.shards.size() == hb.shard_versions.size()) {
    // Piggybacked write-log versions: the anti-entropy loop (and the
    // coordinator's `versions` verb) compare against these.
    MutexLock lock(mu_);
    std::map<uint64_t, uint64_t>& versions = peer_shard_versions_[hb.node];
    for (size_t i = 0; i < hb.shards.size(); ++i) {
      versions[hb.shards[i]] = hb.shard_versions[i];
    }
  }
  if (!hb.listen_addr.empty()) {
    bool learned = false;
    {
      MutexLock lock(mu_);
      auto it = known_addrs_.find(hb.node);
      if (it == known_addrs_.end() || it->second != hb.listen_addr) {
        // Address learning: the sender bound an ephemeral port we did
        // not know (or moved); route future sends there.
        known_addrs_[hb.node] = hb.listen_addr;
        learned = true;
      }
    }
    if (learned) net_->SetRemotePeer(hb.node, hb.listen_addr);
  }
  if (!hb.peer_nodes.empty() &&
      hb.peer_nodes.size() == hb.peer_addrs.size()) {
    // Gossiped third-party addresses fill gaps only: a peer we have an
    // entry for keeps it (that peer's own listen_addr is authoritative
    // for moves; stale gossip must not undo a direct learning).
    std::vector<std::pair<std::string, std::string>> filled;
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < hb.peer_nodes.size(); ++i) {
        const std::string& peer = hb.peer_nodes[i];
        const std::string& addr = hb.peer_addrs[i];
        if (peer == self_spec_.id || addr.empty()) continue;
        if (known_addrs_.find(peer) != known_addrs_.end()) continue;
        known_addrs_[peer] = addr;
        filled.emplace_back(peer, addr);
      }
    }
    for (const auto& [peer, addr] : filled) net_->SetRemotePeer(peer, addr);
  }
  // The beat may carry the last advertised write-log version the
  // commit gate was waiting on.
  if (self_spec_.role == NodeRole::kCoordinator) MaybeCommitEpoch();
}

void ClusterNode::HandleShardFetch(const Message& msg) {
  const auto& fetch = std::get<ShardFetchMsg>(msg.payload);
  const PlacementState::Snapshot committed = placement_.Committed();
  ShardRowsMsg reply;
  reply.request_id = fetch.request_id;
  reply.table_name = fetch.table_name;
  reply.node = self_spec_.id;
  reply.shard = fetch.shard;
  reply.ring_epoch = committed.epoch;
  if (self_spec_.role != NodeRole::kStorage) {
    Status status = Status::FailedPrecondition(
        "node '" + self_spec_.id + "' is not a storage node");
    reply.error = status.message();
    reply.error_code = static_cast<int32_t>(status.code());
  } else if (fetch.ring_epoch != 0 && fetch.ring_epoch < committed.epoch) {
    // The fetcher resolved placement under a ring this node has already
    // replaced — its owner choice is unreliable (this node may have
    // dropped the slice at the commit).  Reject loudly; the coordinator
    // re-resolves and refetches.
    Status status = Status::FailedPrecondition(
        "stale ring epoch " + std::to_string(fetch.ring_epoch) + " (node '" +
        self_spec_.id + "' is at " + std::to_string(committed.epoch) + ")");
    reply.error = status.message();
    reply.error_code = static_cast<int32_t>(status.code());
    obs::MetricRegistry::Default()
        .GetCounter("cluster.epoch.stale_rejected")
        ->Add();
    obs::RecordEvent(self_spec_.id, "cluster.epoch.stale",
                     "fetch " + fetch.table_name + "#" +
                         std::to_string(fetch.shard) + " at epoch " +
                         std::to_string(fetch.ring_epoch) + " < " +
                         std::to_string(committed.epoch) + " from " + msg.from,
                     static_cast<int64_t>(fetch.ring_epoch));
  } else {
    auto it = slices_.find({fetch.table_name, fetch.shard});
    if (it == slices_.end()) {
      // Replica-aware ownership: any member of the shard's replica set
      // may legitimately serve it.
      bool replicates = false;
      if (fetch.shard < committed.ring->shard_count()) {
        const std::vector<std::string>& owners =
            committed.ring->OwnersForShard(fetch.shard);
        replicates = std::find(owners.begin(), owners.end(),
                               self_spec_.id) != owners.end();
      }
      Status status =
          !replicates
              ? Status::FailedPrecondition(
                    "node '" + self_spec_.id + "' does not replicate shard " +
                    std::to_string(fetch.shard))
              : Status::NotFound("node '" + self_spec_.id +
                                 "' has no table '" + fetch.table_name + "'");
      reply.error = status.message();
      reply.error_code = static_cast<int32_t>(status.code());
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
  }
  Message out;
  out.from = self_spec_.id;
  out.to = msg.from;
  out.payload = std::move(reply);
  SendReply(std::move(out), "HandleShardFetch");
}

void ClusterNode::SendReply(Message out, const char* context) {
  const std::string to = out.to;
  Status sent = net_->Send(std::move(out));
  if (sent.ok()) return;
  // The requester will recover by timeout/retry/anti-entropy, but a
  // dropped reply is indistinguishable from this node being down — make
  // the drop observable instead of swallowing the Status.
  obs::MetricRegistry::Default()
      .GetCounter("cluster.reply.send_failures")
      ->Add();
  obs::RecordEvent(self_spec_.id, "cluster.reply.send_failure",
                   std::string(context) + " reply to '" + to + "': " +
                       sent.ToString());
}

void ClusterNode::InstallSlice(const WriteSliceMsg& slice) {
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

Result<ApplyOutcome> ClusterNode::ApplyWriteSlice(const WriteSliceMsg& slice) {
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

void ClusterNode::HandleRepairReply(const Message& msg, bool matched) {
  const auto& slice = std::get<WriteSliceMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  // Only the reply to the shard's live pull counts: a delayed reply from
  // a timed-out earlier pull must not sneak its payload in.
  if (!matched) {
    reg.GetCounter("cluster.repair.ignored_replies")->Add();
    return;
  }
  if (!slice.error.empty()) {
    reg.GetCounter("cluster.repair.failures")->Add();
    return;
  }
  Result<ApplyOutcome> outcome = ApplyWriteSlice(slice);
  if (!outcome.ok() || outcome.value() == ApplyOutcome::kStale) {
    reg.GetCounter("cluster.repair.failures")->Add();
    return;
  }
  if (outcome.value() == ApplyOutcome::kApplied) {
    reg.GetCounter("cluster.repair.entries_applied")->Add();
    obs::RecordEvent(self_spec_.id, "cluster.repair.applied",
                     slice.table_name + "#" + std::to_string(slice.shard) +
                         " v" + std::to_string(slice.shard_version) + " from " +
                         msg.from,
                     static_cast<int64_t>(slice.shard_version));
  }
  // Chain straight into the next pull for this shard (if any): a
  // replica many writes behind converges at network speed, not at
  // repair_interval_ms per entry.
  MaybeRepair(static_cast<int64_t>(slice.shard));
}

void ClusterNode::HandleWriteSlice(const Message& msg) {
  const auto& slice = std::get<WriteSliceMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  WriteAckMsg ack;
  ack.request_id = slice.request_id;
  ack.node = self_spec_.id;
  ack.shard = slice.shard;
  ack.ring_epoch = placement_.epoch();
  if (self_spec_.role != NodeRole::kStorage) {
    Status status = Status::FailedPrecondition(
        "node '" + self_spec_.id + "' is not a storage node");
    ack.error = status.message();
    ack.error_code = static_cast<int32_t>(status.code());
  } else {
    // No epoch gate here, deliberately: a write racing an epoch commit
    // is stamped with the just-replaced epoch, and rejecting it would
    // fail its quorum for no safety gain — shard-version monotonicity
    // and the committed floor already reject every unsafe application
    // (DESIGN.md §15).
    Result<ApplyOutcome> outcome = ApplyWriteSlice(slice);
    if (!outcome.ok()) {
      ack.error = outcome.status().message();
      ack.error_code = static_cast<int32_t>(outcome.status().code());
    } else if (outcome.value() == ApplyOutcome::kStale) {
      // This replica missed committed writes; anti-entropy must fill
      // the gap before this slice can land.  The coordinator sees
      // applied=0 and retries (or commits on quorum without us).
      reg.GetCounter("cluster.write.stale_rejected")->Add();
      obs::RecordEvent(self_spec_.id, "cluster.write.stale",
                       slice.table_name + "#" + std::to_string(slice.shard) +
                           " offered v" + std::to_string(slice.shard_version) +
                           " (floor v" + std::to_string(slice.committed_floor) +
                           ") at v" +
                           std::to_string(write_log_.VersionOf(slice.shard)),
                       static_cast<int64_t>(slice.shard));
      Status status = Status::FailedPrecondition(
          "replica '" + self_spec_.id + "' is stale on shard " +
          std::to_string(slice.shard));
      ack.error = status.message();
      ack.error_code = static_cast<int32_t>(status.code());
    } else {
      ack.applied = 1;
      reg.GetCounter(outcome.value() == ApplyOutcome::kApplied
                         ? "cluster.write.applied"
                         : "cluster.write.duplicates")
          ->Add();
    }
    ack.shard_version = write_log_.VersionOf(slice.shard);
  }
  Message out;
  out.from = self_spec_.id;
  out.to = msg.from;
  out.payload = std::move(ack);
  SendReply(std::move(out), "HandleWriteSlice");
}

void ClusterNode::HandleRepairFetch(const Message& msg) {
  const auto& fetch = std::get<RepairFetchMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  WriteSliceMsg reply;
  reply.request_id = fetch.request_id;
  reply.origin = self_spec_.id;
  reply.shard = fetch.shard;
  reply.repair = 1;
  // The oldest entry above the requester's version: steps over burned
  // sequences this log never held.
  Result<WriteSliceMsg> entry =
      write_log_.EntryAfter(fetch.shard, fetch.from_version);
  if (entry.ok()) {
    reply = std::move(entry.value());
    reply.request_id = fetch.request_id;
    reply.origin = self_spec_.id;
    reply.repair = 1;
    reg.GetCounter("cluster.repair.entries_served")->Add();
  } else {
    reply.error = entry.status().message();
    reply.error_code = static_cast<int32_t>(entry.status().code());
  }
  Message out;
  out.from = self_spec_.id;
  out.to = msg.from;
  out.payload = std::move(reply);
  SendReply(std::move(out), "HandleRepairFetch");
}

void ClusterNode::HandleHandoffFetch(const Message& msg) {
  const auto& fetch = std::get<HandoffFetchMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t epoch = placement_.epoch();
  HandoffRowsMsg reply;
  reply.request_id = fetch.request_id;
  reply.node = self_spec_.id;
  reply.shard = fetch.shard;
  if (self_spec_.role != NodeRole::kStorage) {
    Status status = Status::FailedPrecondition(
        "node '" + self_spec_.id + "' is not a storage node");
    reply.error = status.message();
    reply.error_code = static_cast<int32_t>(status.code());
  } else if (fetch.ring_epoch != 0 && fetch.ring_epoch < epoch) {
    // The puller is converging on a transition this node has already
    // seen committed (or superseded) — its snapshot request is moot.
    Status status = Status::FailedPrecondition(
        "stale ring epoch " + std::to_string(fetch.ring_epoch) + " (node '" +
        self_spec_.id + "' is at " + std::to_string(epoch) + ")");
    reply.error = status.message();
    reply.error_code = static_cast<int32_t>(status.code());
    reg.GetCounter("cluster.epoch.stale_rejected")->Add();
    obs::RecordEvent(self_spec_.id, "cluster.epoch.stale",
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
      ws.origin = self_spec_.id;
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
  Message out;
  out.from = self_spec_.id;
  out.to = msg.from;
  out.payload = std::move(reply);
  SendReply(std::move(out), "HandleHandoffFetch");
}

void ClusterNode::HandleHandoffRows(const Message& msg, bool matched) {
  const auto& rows = std::get<HandoffRowsMsg>(msg.payload);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  if (!rows.error.empty()) {
    // Only the reply to the live pull may fail it; a late error belongs
    // to a pull that already ended.
    if (matched) {
      reg.GetCounter("cluster.rebalance.handoff_failures")->Add();
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
  uint64_t installed_rows = 0;
  if (write_log_.VersionOf(rows.shard) <= rows.shard_version) {
    // The slices are full shard state at the source's write-log version
    // — installed directly (several tables share one version, which a
    // log Append per table would violate); the floor adopts the version
    // so later writes and anti-entropy chain from it.
    for (const WriteSliceMsg& ws : rows.slices) {
      InstallSlice(ws);
      installed_rows += ws.rows.size();
    }
    write_log_.SetFloor(rows.shard, rows.shard_version);
  }
  obs::RecordEvent(self_spec_.id, "cluster.rebalance.handoff",
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
    ack.node = self_spec_.id;
    ack.shard = rows.shard;
    ack.shard_version = write_log_.VersionOf(rows.shard);
    ack.rows = installed_rows;
    ack.ring_epoch = pending.epoch;
    Message out;
    out.from = self_spec_.id;
    out.to = coordinator.value().id;
    out.payload = std::move(ack);
    SendReply(std::move(out), "HandleHandoffRows");
  }
  // Writes that landed on the old owners after the snapshot are above
  // the floor now — chain anti-entropy to pull them.
  MaybeRepair(static_cast<int64_t>(rows.shard));
}

void ClusterNode::HandleHandoffAck(const Message& msg) {
  const auto& ack = std::get<HandoffAckMsg>(msg.payload);
  if (self_spec_.role != NodeRole::kCoordinator) return;
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

void ClusterNode::MaybeCommitEpoch() {
  if (self_spec_.role != NodeRole::kCoordinator) return;
  // Both the sink's and placement's mutexes are leaves like mu_ —
  // snapshot the committed write sequence before taking mu_.
  const uint64_t committed_seq =
      table_sink_ != nullptr ? table_sink_->committed_sequence() : 0;
  const int64_t now = NowUs();
  uint64_t epoch = 0;
  size_t moves = 0;
  int64_t started_us = 0;
  {
    MutexLock lock(mu_);
    if (transition_ == nullptr || !transition_->waiting.empty()) return;
    for (const auto& [key, acked_version] : transition_->acked) {
      // The gained owner must have caught up to every write committed
      // so far — via the handoff snapshot or anti-entropy since; its
      // heartbeat-advertised version may run ahead of the ack's.
      uint64_t have = acked_version;
      auto peer = peer_shard_versions_.find(key.second);
      if (peer != peer_shard_versions_.end()) {
        auto shard = peer->second.find(key.first);
        if (shard != peer->second.end()) {
          have = std::max(have, shard->second);
        }
      }
      if (have < committed_seq) return;
    }
    epoch = transition_->epoch;
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
  obs::RecordEvent(self_spec_.id, "cluster.rebalance.committed",
                   "epoch " + std::to_string(epoch) + " (" +
                       std::to_string(moves) + " moves, " +
                       std::to_string(now - started_us) + " us)",
                   static_cast<int64_t>(epoch));
  placement_.Commit();
  // Leavers drop off the roster; cached assemblies resolved under the
  // old ring are dropped so the next fetch routes to the new owners.
  SyncRosterToPlacement(/*drop_unowned=*/true);
  if (table_source_ != nullptr) table_source_->Evict();
  // Announce the commit immediately instead of waiting out a beat.
  SendHeartbeats();
}

void ClusterNode::MaybeAutoDecommission(
    const std::vector<MemberInfo>& members) {
  if (self_spec_.role != NodeRole::kCoordinator) return;
  if (config_.decommission_after_ms == 0) return;
  if (placement_.HasPending()) return;
  const PlacementState::Snapshot committed = placement_.Committed();
  const std::vector<std::string>& storage = committed.ring->storage_nodes();
  const int64_t deadline_us =
      static_cast<int64_t>(config_.down_ms + config_.decommission_after_ms) *
      1000;
  const int64_t now = NowUs();
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
    obs::RecordEvent(self_spec_.id, "cluster.rebalance.auto_decommission",
                     "node '" + member.node + "' silent " +
                         std::to_string((now - member.last_heard_us) / 1000) +
                         " ms -> epoch " + std::to_string(epoch.value()),
                     static_cast<int64_t>(epoch.value()));
    return;  // one transition at a time
  }
}

void ClusterNode::MaybeHandoff() {
  if (self_spec_.role != NodeRole::kStorage) return;
  const PlacementState::Snapshot pending = placement_.Pending();
  if (pending.ring == nullptr) return;
  const PlacementState::Snapshot committed = placement_.Committed();
  std::vector<uint64_t> current =
      committed.ring->ShardsOwnedBy(self_spec_.id);
  std::set<uint64_t> have(current.begin(), current.end());
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  for (uint64_t shard : pending.ring->ShardsOwnedBy(self_spec_.id)) {
    if (have.find(shard) != have.end()) continue;  // already a replica
    // One pull per shard; one that timed out has ended, so the next pass
    // pulls again (possibly elsewhere).
    if (calls_->Busy(PullKey("handoff", shard))) continue;
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
    reg.GetCounter("cluster.rebalance.handoff_fetches")->Add();
    CallSpec spec;
    spec.phase = "handoff pull of shard " + std::to_string(shard);
    spec.key = PullKey("handoff", shard);
    spec.candidates = {source};
    spec.attempt_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    spec.request = [this, shard, epoch = pending.epoch](
                       uint64_t id, const std::string& to) {
      HandoffFetchMsg fetch;
      fetch.request_id = id;
      fetch.node = self_spec_.id;
      fetch.shard = shard;
      fetch.ring_epoch = epoch;
      return Message{self_spec_.id, to, std::move(fetch)};
    };
    calls_->Start(std::move(spec));
  }
}

void ClusterNode::MaybeRepair(int64_t chain_shard) {
  if (self_spec_.role != NodeRole::kStorage) return;
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  // Owned = union of committed and pending ownership: a gained shard
  // keeps converging on post-handoff writes before the epoch commits.
  const PlacementState::Snapshot committed = placement_.Committed();
  const PlacementState::Snapshot pending = placement_.Pending();
  std::vector<uint64_t> owned = committed.ring->ShardsOwnedBy(self_spec_.id);
  if (pending.ring != nullptr) {
    std::set<uint64_t> merged(owned.begin(), owned.end());
    for (uint64_t shard : pending.ring->ShardsOwnedBy(self_spec_.id)) {
      merged.insert(shard);
    }
    owned.assign(merged.begin(), merged.end());
  }
  // Shards free to pull, with this node's version of each.  One pull per
  // shard; a shard whose handoff snapshot is still on its way gets its
  // state wholesale — entry-by-entry replay would race it (and the
  // source's log may not reach below its own handoff floor).  The call
  // table's, write_log_'s and mu_'s mutexes are all leaves: none is
  // held while taking another.
  std::map<uint64_t, uint64_t> mine;
  for (uint64_t shard : owned) {
    if (chain_shard >= 0 && shard != static_cast<uint64_t>(chain_shard)) {
      continue;
    }
    if (calls_->Busy(PullKey("repair", shard))) continue;
    if (pending.ring != nullptr && calls_->Busy(PullKey("handoff", shard))) {
      continue;
    }
    mine[shard] = write_log_.VersionOf(shard);
  }
  for (const auto& [shard, from] : mine) {
    // The most advanced peer is the one to pull from.
    std::string peer;
    {
      MutexLock lock(mu_);
      uint64_t best = from;
      for (const auto& [node, versions] : peer_shard_versions_) {
        auto it = versions.find(shard);
        if (it != versions.end() && it->second > best) {
          peer = node;
          best = it->second;
        }
      }
    }
    if (peer.empty()) {
      if (chain_shard < 0) continue;
      // The repair chain for this shard just caught up with every peer.
      reg.GetCounter("cluster.repair.converged")->Add();
      obs::RecordEvent(self_spec_.id, "cluster.repair.converged",
                       "shard " + std::to_string(shard) + " at v" +
                           std::to_string(from),
                       chain_shard);
      continue;
    }
    reg.GetCounter("cluster.repair.fetches")->Add();
    obs::RecordEvent(self_spec_.id, "cluster.repair.started",
                     "shard " + std::to_string(shard) + " v" +
                         std::to_string(from) + " <- " + peer,
                     static_cast<int64_t>(shard));
    CallSpec spec;
    spec.phase = "repair pull of shard " + std::to_string(shard);
    spec.key = PullKey("repair", shard);
    spec.candidates = {peer};
    spec.attempt_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    spec.latest_only = true;
    spec.request = [this, shard = shard, from = from](
                       uint64_t id, const std::string& to) {
      RepairFetchMsg fetch;
      fetch.request_id = id;
      fetch.node = self_spec_.id;
      fetch.shard = shard;
      fetch.from_version = from;
      return Message{self_spec_.id, to, std::move(fetch)};
    };
    calls_->Start(std::move(spec));
  }
}

void ClusterNode::SendHeartbeats() {
  // Resolve our own address before taking mu_ (ListenPort locks the
  // network; mu_ is a leaf and must not be held across it).
  auto port = net_->ListenPort(self_spec_.id);
  std::string listen_addr =
      self_spec_.host + ":" +
      std::to_string(port.ok() ? port.value() : self_spec_.port);
  // Storage beats piggyback the write-log versions (write_log_'s mutex
  // is a leaf like mu_, so snapshot before taking mu_ below).  The
  // placement snapshot rides along the same way: every beat announces
  // the committed epoch and storage roster (plus the pending ones while
  // a transition converges), which is what peers adopt from.
  std::vector<std::pair<uint64_t, uint64_t>> shard_versions;
  if (self_spec_.role == NodeRole::kStorage) {
    shard_versions = write_log_.Versions();
  }
  const PlacementState::Snapshot committed = placement_.Committed();
  const PlacementState::Snapshot pending = placement_.Pending();
  std::vector<Message> beats;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    uint64_t beat = ++beat_;
    // Address gossip: share every roster address we know.  Storage
    // siblings boot blind to each other (seed configs carry port 0)
    // and handoff pulls need them to dial each other directly; the
    // coordinator knows everyone, so its beats close the loop.
    std::vector<std::string> gossip_nodes;
    std::vector<std::string> gossip_addrs;
    for (const std::string& member : roster_) {
      auto it = known_addrs_.find(member);
      if (it == known_addrs_.end() || it->second.empty()) continue;
      gossip_nodes.push_back(member);
      gossip_addrs.push_back(it->second);
    }
    for (const std::string& peer : roster_) {
      // A peer without a known address (ephemeral port, not yet heard
      // from) cannot be beaten yet; it will reach us first.
      if (known_addrs_.find(peer) == known_addrs_.end()) continue;
      Message msg;
      msg.from = self_spec_.id;
      msg.to = peer;
      HeartbeatMsg hb;
      hb.node = self_spec_.id;
      hb.role = static_cast<uint8_t>(self_spec_.role);
      hb.listen_addr = listen_addr;
      hb.incarnation = incarnation_;
      hb.beat = beat;
      for (const auto& [shard, version] : shard_versions) {
        hb.shards.push_back(shard);
        hb.shard_versions.push_back(version);
      }
      hb.ring_epoch = committed.epoch;
      hb.ring_nodes = committed.ring->storage_nodes();
      if (pending.ring != nullptr) {
        hb.pending_epoch = pending.epoch;
        hb.pending_nodes = pending.ring->storage_nodes();
      }
      hb.peer_nodes = gossip_nodes;
      hb.peer_addrs = gossip_addrs;
      msg.payload = std::move(hb);
      beats.push_back(std::move(msg));
    }
  }
  if (!beats.empty()) {
    obs::MetricRegistry::Default()
        .GetCounter("cluster.heartbeats_sent")
        ->Add(beats.size());
  }
  for (Message& msg : beats) {
    // Best-effort by design: a beat to a peer with a stale or unresolved
    // address fails until gossip catches up, and membership treats the
    // silence as the signal.  The next beat retries everyone.
    IgnoreStatus(net_->Send(std::move(msg)));
  }
}

void ClusterNode::ScheduleHeartbeat() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  auto timer = net_->ScheduleTimer(
      self_spec_.id, static_cast<int64_t>(config_.heartbeat_ms) * 1000,
      [this] {
        SendHeartbeats();
        ScheduleHeartbeat();
      });
  bool stopped;
  {
    MutexLock lock(mu_);
    heartbeat_timer_ = timer.ok() ? timer.value() : 0;
    stopped = !running_;
  }
  // Stop() may have raced us between the checks; it has already
  // cancelled whatever id it saw, so cancel the fresh one ourselves.
  if (stopped && timer.ok()) net_->CancelTimer(timer.value());
}

void ClusterNode::ScheduleSweep() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  // Sweep at half the suspect timeout: fine-grained enough that a dead
  // node is noticed within ~1.5x the configured silence budget.
  int64_t period_us = static_cast<int64_t>(config_.suspect_ms) * 500;
  if (period_us < 1000) period_us = 1000;
  auto timer = net_->ScheduleTimer(self_spec_.id, period_us, [this] {
    std::vector<MemberInfo> changed = membership_.SweepAt(NowUs());
    // Membership-change hook: an assembled table sourced from a node now
    // known dead must not outlive that knowledge — a recovered-then-
    // restarted node could otherwise be shadowed by a stale assembly.
    if (table_source_ != nullptr) {
      for (const MemberInfo& member : changed) {
        if (member.state == MemberState::kDown) {
          table_source_->OnMemberDown(member.node);
          table_sink_->OnMemberDown();
        }
      }
    }
    if (self_spec_.role == NodeRole::kCoordinator) {
      // The commit gate and the held-down deadline both ride the sweep:
      // a transition with nothing left to hand off (or whose last ack
      // raced a heartbeat) still commits promptly.
      MaybeCommitEpoch();
      MaybeAutoDecommission(membership_.Snapshot());
    }
    ScheduleSweep();
  });
  bool stopped;
  {
    MutexLock lock(mu_);
    sweep_timer_ = timer.ok() ? timer.value() : 0;
    stopped = !running_;
  }
  if (stopped && timer.ok()) net_->CancelTimer(timer.value());
}

void ClusterNode::ScheduleRepair() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  int64_t period_us = static_cast<int64_t>(config_.repair_interval_ms) * 1000;
  if (period_us < 1000) period_us = 1000;
  auto timer = net_->ScheduleTimer(self_spec_.id, period_us, [this] {
    MaybeRepair(-1);
    // Retries timed-out handoff pulls; a no-op without a pending ring.
    MaybeHandoff();
    ScheduleRepair();
  });
  bool stopped;
  {
    MutexLock lock(mu_);
    repair_timer_ = timer.ok() ? timer.value() : 0;
    stopped = !running_;
  }
  if (stopped && timer.ok()) net_->CancelTimer(timer.value());
}

}  // namespace cluster
}  // namespace hyperion
