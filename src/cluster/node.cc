#include "cluster/node.h"

#include <cstdio>
#include <fstream>
#include <utility>
#include <variant>

namespace hyperion {
namespace cluster {

namespace {

// The roster every node starts from: the whole config but itself.
std::vector<std::string> PeersOf(const ClusterConfig& config,
                                 const std::string& self) {
  std::vector<std::string> peers;
  for (const NodeSpec& node : config.nodes) {
    if (node.id != self) peers.push_back(node.id);
  }
  return peers;
}

// The coordinator's reads and writes (null on storage nodes).
std::unique_ptr<ClusterTableSource> SourceFor(
    const ClusterConfig& config, const NodeSpec& self, CallTable* calls,
    const PlacementState* placement, const MembershipTracker* membership) {
  if (self.role != NodeRole::kCoordinator) return nullptr;
  ClusterTableSource::Options opts;
  opts.fetch_timeout_us = static_cast<int64_t>(config.fetch_timeout_ms) * 1000;
  opts.replica_timeout_us =
      static_cast<int64_t>(config.replica_timeout_ms) * 1000;
  opts.backoff_base_us = static_cast<int64_t>(config.fetch_backoff_ms) * 1000;
  opts.hedge_delay_us = static_cast<int64_t>(config.hedge_ms) * 1000;
  opts.attempts_per_replica = static_cast<int>(config.fetch_attempts);
  return std::make_unique<ClusterTableSource>(calls, placement, membership,
                                              opts);
}

std::unique_ptr<ClusterTableSink> SinkFor(const ClusterConfig& config,
                                          const NodeSpec& self,
                                          CallTable* calls,
                                          const PlacementState* placement,
                                          const MembershipTracker* membership) {
  if (self.role != NodeRole::kCoordinator) return nullptr;
  ClusterTableSink::Options opts;
  opts.write_timeout_us = static_cast<int64_t>(config.write_timeout_ms) * 1000;
  opts.replica_timeout_us =
      static_cast<int64_t>(config.replica_timeout_ms) * 1000;
  opts.backoff_base_us = static_cast<int64_t>(config.write_backoff_ms) * 1000;
  opts.attempts_per_replica = static_cast<int>(config.write_attempts);
  opts.quorum = config.write_quorum;
  return std::make_unique<ClusterTableSink>(calls, placement, membership,
                                            opts);
}

}  // namespace

Result<std::unique_ptr<ClusterNode>> ClusterNode::Create(ClusterConfig config,
                                                         std::string self,
                                                         TableStore store) {
  return Build(std::move(config), std::move(self), std::move(store), nullptr);
}

Result<std::unique_ptr<ClusterNode>> ClusterNode::Create(ClusterConfig config,
                                                         std::string self,
                                                         TableStore store,
                                                         Network& net) {
  return Build(std::move(config), std::move(self), std::move(store), &net);
}

Result<std::unique_ptr<ClusterNode>> ClusterNode::Build(ClusterConfig config,
                                                        std::string self,
                                                        TableStore store,
                                                        Network* net) {
  HYP_RETURN_IF_ERROR(config.Validate());
  HYP_ASSIGN_OR_RETURN(NodeSpec self_spec, config.NodeById(self));
  HYP_ASSIGN_OR_RETURN(
      ShardRing ring,
      ShardRing::Build(config.StorageNodeIds(), config.shard_count,
                       config.vnodes, config.replication));
  std::unique_ptr<TcpNetwork> tcp;
  if (net == nullptr) {
    TcpNetwork::Options options;
    options.listen_host = self_spec.host;
    options.base_port = self_spec.port;
    tcp = std::make_unique<TcpNetwork>(options);
    net = tcp.get();
  }
  return std::unique_ptr<ClusterNode>(
      new ClusterNode(std::move(config), std::move(self_spec),
                      std::move(store), std::move(ring), *net, std::move(tcp)));
}

ClusterNode::ClusterNode(ClusterConfig config, NodeSpec self_spec,
                         TableStore store, ShardRing ring, Network& net,
                         std::unique_ptr<TcpNetwork> tcp)
    : config_(std::move(config)),
      self_spec_(std::move(self_spec)),
      store_(std::move(store)),
      tcp_(std::move(tcp)),
      net_(net),
      // The coordinator is the epoch authority: it mints epoch 1 for the
      // config-time ring; everyone else starts at 0 and adopts the
      // committed epoch from the first heartbeat that announces one.
      placement_(std::move(ring),
                 self_spec_.role == NodeRole::kCoordinator ? 1 : 0),
      membership_(self_spec_.id, PeersOf(config_, self_spec_.id),
                  static_cast<int64_t>(config_.suspect_ms) * 1000,
                  static_cast<int64_t>(config_.down_ms) * 1000),
      calls_(self_spec_.id, &net_),
      timers_(self_spec_.id, &net_),
      table_source_(SourceFor(config_, self_spec_, &calls_, &placement_,
                              &membership_)),
      table_sink_(SinkFor(config_, self_spec_, &calls_, &placement_,
                          &membership_)),
      shards_(self_spec_, net_, placement_),
      heartbeats_(config_, self_spec_, net_, placement_, membership_,
                  shards_.write_log(),
                  tcp_ == nullptr
                      ? Heartbeats::Route()
                      : [tcp = tcp_.get()](const std::string& node,
                                           const std::string& addr) {
                          tcp->SetRemotePeer(node, addr);
                        }),
      repair_(config_, self_spec_, calls_, placement_, shards_, heartbeats_),
      rebalance_(config_, self_spec_, calls_, placement_, membership_,
                 heartbeats_, shards_, repair_, table_source_.get(),
                 table_sink_.get()) {}

ClusterNode::~ClusterNode() { Stop(); }

Status ClusterNode::Bind() {
  if (bound_) return Status::OK();
  HYP_RETURN_IF_ERROR(net_.RegisterPeer(
      self_spec_.id, [this](const Message& msg) { HandleMessage(msg); }));
  bound_ = true;
  return Status::OK();
}

Result<uint16_t> ClusterNode::ListenPort() const {
  if (!bound_) return Status::FailedPrecondition("node is not bound");
  if (tcp_ == nullptr) {
    return Status::FailedPrecondition(
        "node '" + self_spec_.id + "' runs on an injected network");
  }
  return tcp_->ListenPort(self_spec_.id);
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
  if (!bound_) return Status::FailedPrecondition("Bind() before Start()");
  if (running_) return Status::OK();
  if (self_spec_.role == NodeRole::kStorage) {
    HYP_RETURN_IF_ERROR(
        shards_.Load(store_, write_log_dir_, config_.shard_count));
  }
  // Beats announce the port the listener really bound, which differs
  // from the config's when that asked for an ephemeral one.
  Result<uint16_t> port = ListenPort();
  heartbeats_.Start(self_spec_.host + ":" +
                    std::to_string(port.ok() ? port.value() : self_spec_.port));
  if (tcp_ != nullptr) HYP_RETURN_IF_ERROR(tcp_->Start());
  running_ = true;
  heartbeats_.SendHeartbeats();
  timers_.Every(static_cast<int64_t>(config_.heartbeat_ms) * 1000,
                [this] { heartbeats_.SendHeartbeats(); });
  // Sweep at half the suspect timeout: fine-grained enough that a dead
  // node is noticed within ~1.5x the configured silence budget.
  timers_.Every(static_cast<int64_t>(config_.suspect_ms) * 500,
                [this] { Sweep(); });
  if (self_spec_.role == NodeRole::kStorage) {
    timers_.Every(static_cast<int64_t>(config_.repair_interval_ms) * 1000,
                  [this] {
                    repair_.MaybeRepair(-1);
                    // Retries timed-out handoff pulls; a no-op without a
                    // pending ring.
                    rebalance_.MaybeHandoff();
                  });
  }
  return Status::OK();
}

void ClusterNode::Stop() {
  if (!running_) return;
  running_ = false;
  timers_.Stop();
  heartbeats_.Stop();
  // A Fetch or Apply blocked on a call must not wait on timers that a
  // stopped loop never fires.
  calls_.Stop();
  if (tcp_ != nullptr) tcp_->Stop(1'000'000);
}

void ClusterNode::SetPeerAddress(const std::string& node,
                                 const std::string& host_port) {
  heartbeats_.SetAddress(node, host_port);
}

bool ClusterNode::WaitAllAlive(int64_t timeout_us) {
  if (tcp_ == nullptr) return membership_.AllAlive();
  return tcp_->RunUntil([this] { return membership_.AllAlive(); },
                        timeout_us);
}

void ClusterNode::HandleMessage(const Message& msg) {
  if (const auto* hb = std::get_if<HeartbeatMsg>(&msg.payload)) {
    // Epoch adoption first: the announcement may put the sender (a
    // joining node heard of via the pending ring) onto the roster the
    // beat is gated by.
    rebalance_.AdoptFromHeartbeat(*hb);
    // The beat may carry the last advertised write-log version the
    // commit gate was waiting on.
    if (heartbeats_.HandleHeartbeat(*hb)) rebalance_.MaybeCommitEpoch();
  } else if (std::holds_alternative<ShardFetchMsg>(msg.payload)) {
    shards_.HandleShardFetch(msg);
  } else if (const auto* rows = std::get_if<ShardRowsMsg>(&msg.payload)) {
    calls_.Deliver(rows->request_id, msg);
  } else if (const auto* slice = std::get_if<WriteSliceMsg>(&msg.payload)) {
    if (slice->repair == 0) {
      shards_.HandleWriteSlice(msg);
    } else {
      repair_.HandleRepairReply(msg, calls_.Deliver(slice->request_id, msg));
    }
  } else if (const auto* ack = std::get_if<WriteAckMsg>(&msg.payload)) {
    calls_.Deliver(ack->request_id, msg);
  } else if (std::holds_alternative<RepairFetchMsg>(msg.payload)) {
    shards_.HandleRepairFetch(msg);
  } else if (std::holds_alternative<HandoffFetchMsg>(msg.payload)) {
    shards_.HandleHandoffFetch(msg);
  } else if (const auto* handoff = std::get_if<HandoffRowsMsg>(&msg.payload)) {
    rebalance_.HandleHandoffRows(msg, calls_.Deliver(handoff->request_id, msg));
  } else if (std::holds_alternative<HandoffAckMsg>(msg.payload)) {
    rebalance_.HandleHandoffAck(msg);
  }
  // Anything else (discovery, session traffic) belongs to a query
  // service sharing the transport, not to the cluster runtime.
}

void ClusterNode::Sweep() {
  std::vector<MemberInfo> changed = membership_.SweepAt(net_.now_us());
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
  // The commit gate and the held-down deadline both ride the sweep: a
  // transition with nothing left to hand off (or whose last ack raced a
  // heartbeat) still commits promptly.  Both are coordinator-only.
  rebalance_.MaybeCommitEpoch();
  rebalance_.MaybeAutoDecommission(membership_.Snapshot());
}

}  // namespace cluster
}  // namespace hyperion
