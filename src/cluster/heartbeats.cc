#include "cluster/heartbeats.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace hyperion {
namespace cluster {

Heartbeats::Heartbeats(const ClusterConfig& config, const NodeSpec& self,
                       Network& net, const PlacementState& placement,
                       MembershipTracker& membership,
                       const ShardWriteLog& write_log, Route route)
    : config_(config),
      self_(self),
      net_(net),
      placement_(placement),
      membership_(membership),
      write_log_(write_log),
      route_(std::move(route)),
      // The network's clock, not the wall clock: on sim it is virtual
      // time, so a sim run sends the same bytes every time.  Nothing
      // reads the field yet.
      incarnation_(static_cast<uint64_t>(net.now_us())) {
  MutexLock lock(mu_);
  for (const NodeSpec& node : config_.nodes) {
    if (node.id != self_.id) roster_.insert(node.id);
  }
}

void Heartbeats::Start(std::string listen_addr) {
  std::vector<std::pair<std::string, std::string>> routes;
  {
    MutexLock lock(mu_);
    for (const NodeSpec& node : config_.nodes) {
      if (node.id == self_.id) continue;
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
    listen_addr_ = std::move(listen_addr);
    running_ = true;
  }
  if (route_ == nullptr) return;
  for (const auto& [id, addr] : routes) route_(id, addr);
}

void Heartbeats::Stop() {
  MutexLock lock(mu_);
  running_ = false;
}

void Heartbeats::SetAddress(const std::string& node,
                            const std::string& host_port) {
  {
    MutexLock lock(mu_);
    known_addrs_[node] = host_port;
  }
  if (route_ != nullptr) route_(node, host_port);
}

bool Heartbeats::HandleHeartbeat(const HeartbeatMsg& hb) {
  bool in_roster;
  {
    MutexLock lock(mu_);
    in_roster = roster_.find(hb.node) != roster_.end();
  }
  if (!in_roster) return false;
  membership_.Observe(hb.node, net_.now_us());
  std::vector<std::pair<std::string, std::string>> learned;
  {
    MutexLock lock(mu_);
    if (!hb.shards.empty() && hb.shards.size() == hb.shard_versions.size()) {
      // Piggybacked write-log versions: the anti-entropy loop (and the
      // coordinator's `versions` verb) compare against these.
      std::map<uint64_t, uint64_t>& versions = peer_shard_versions_[hb.node];
      for (size_t i = 0; i < hb.shards.size(); ++i) {
        versions[hb.shards[i]] = hb.shard_versions[i];
      }
    }
    if (!hb.listen_addr.empty()) {
      auto it = known_addrs_.find(hb.node);
      if (it == known_addrs_.end() || it->second != hb.listen_addr) {
        // Address learning: the sender bound an ephemeral port we did
        // not know (or moved); route future sends there.
        known_addrs_[hb.node] = hb.listen_addr;
        learned.emplace_back(hb.node, hb.listen_addr);
      }
    }
    if (!hb.peer_nodes.empty() &&
        hb.peer_nodes.size() == hb.peer_addrs.size()) {
      // Gossiped third-party addresses fill gaps only: a peer we have an
      // entry for keeps it (that peer's own listen_addr is authoritative
      // for moves; stale gossip must not undo a direct learning).
      for (size_t i = 0; i < hb.peer_nodes.size(); ++i) {
        const std::string& peer = hb.peer_nodes[i];
        const std::string& addr = hb.peer_addrs[i];
        if (peer == self_.id || addr.empty()) continue;
        if (known_addrs_.find(peer) != known_addrs_.end()) continue;
        known_addrs_[peer] = addr;
        learned.emplace_back(peer, addr);
      }
    }
  }
  if (route_ != nullptr) {
    for (const auto& [peer, addr] : learned) route_(peer, addr);
  }
  return true;
}

void Heartbeats::SendHeartbeats() {
  // Storage beats piggyback the write-log versions (the log's mutex is a
  // leaf like mu_, so snapshot before taking mu_ below).  The placement
  // snapshot rides along the same way: every beat announces the
  // committed epoch and storage roster (plus the pending ones while a
  // transition converges), which is what peers adopt from.
  std::vector<std::pair<uint64_t, uint64_t>> shard_versions;
  if (self_.role == NodeRole::kStorage) shard_versions = write_log_.Versions();
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
      HeartbeatMsg hb;
      hb.node = self_.id;
      hb.role = static_cast<uint8_t>(self_.role);
      hb.listen_addr = listen_addr_;
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
      beats.push_back(Message{self_.id, peer, std::move(hb)});
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
    IgnoreStatus(net_.Send(std::move(msg)));
  }
}

void Heartbeats::SetRoster(std::set<std::string> roster) {
  std::vector<std::string> added, removed;
  {
    MutexLock lock(mu_);
    for (const std::string& id : roster) {
      if (roster_.find(id) == roster_.end()) added.push_back(id);
    }
    for (const std::string& id : roster_) {
      if (roster.find(id) == roster.end()) removed.push_back(id);
    }
    roster_ = std::move(roster);
    for (const std::string& id : removed) peer_shard_versions_.erase(id);
  }
  // The tracker's mutex is its own leaf — updated with mu_ released.
  for (const std::string& id : added) membership_.AddMember(id);
  for (const std::string& id : removed) membership_.RemoveMember(id);
}

std::map<std::string, std::map<uint64_t, uint64_t>>
Heartbeats::PeerShardVersions() const {
  MutexLock lock(mu_);
  return peer_shard_versions_;
}

uint64_t Heartbeats::AdvertisedVersion(const std::string& node,
                                       uint64_t shard) const {
  MutexLock lock(mu_);
  auto peer = peer_shard_versions_.find(node);
  if (peer == peer_shard_versions_.end()) return 0;
  auto it = peer->second.find(shard);
  return it == peer->second.end() ? 0 : it->second;
}

std::string Heartbeats::MostAdvancedPeer(uint64_t shard,
                                         uint64_t above) const {
  MutexLock lock(mu_);
  std::string peer;
  uint64_t best = above;
  for (const auto& [node, versions] : peer_shard_versions_) {
    auto it = versions.find(shard);
    if (it != versions.end() && it->second > best) {
      peer = node;
      best = it->second;
    }
  }
  return peer;
}

}  // namespace cluster
}  // namespace hyperion
