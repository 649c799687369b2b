#include "cluster/repair.h"

#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace cluster {

std::string ShardPullKey(const char* kind, uint64_t shard) {
  return std::string(kind).append("#").append(std::to_string(shard));
}

RepairPuller::RepairPuller(const ClusterConfig& config, const NodeSpec& self,
                           CallTable& calls, const PlacementState& placement,
                           ShardServer& shards, const Heartbeats& heartbeats)
    : config_(config),
      self_(self),
      calls_(calls),
      placement_(placement),
      shards_(shards),
      heartbeats_(heartbeats) {}

void RepairPuller::HandleRepairReply(const Message& msg, bool matched) {
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
  Result<ApplyOutcome> outcome = shards_.ApplyWriteSlice(slice);
  if (!outcome.ok() || outcome.value() == ApplyOutcome::kStale) {
    reg.GetCounter("cluster.repair.failures")->Add();
    return;
  }
  if (outcome.value() == ApplyOutcome::kApplied) {
    reg.GetCounter("cluster.repair.entries_applied")->Add();
    obs::RecordEvent(self_.id, "cluster.repair.applied",
                     slice.table_name + "#" + std::to_string(slice.shard) +
                         " v" + std::to_string(slice.shard_version) + " from " +
                         msg.from,
                     static_cast<int64_t>(slice.shard_version));
  }
  // Chain straight into the next pull for this shard (if any).
  MaybeRepair(static_cast<int64_t>(slice.shard));
}

void RepairPuller::MaybeRepair(int64_t chain_shard) {
  if (self_.role != NodeRole::kStorage) return;
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const bool transition = placement_.HasPending();
  // Shards free to pull, with this node's version of each.  The call
  // table's, the write log's and the heartbeats' mutexes are all leaves:
  // none is held while taking another.
  std::map<uint64_t, uint64_t> mine;
  for (uint64_t shard : placement_.ShardsOwnedBy(self_.id)) {
    if (chain_shard >= 0 && shard != static_cast<uint64_t>(chain_shard)) {
      continue;
    }
    if (calls_.Busy(ShardPullKey("repair", shard))) continue;
    if (transition && calls_.Busy(ShardPullKey("handoff", shard))) continue;
    mine[shard] = shards_.write_log().VersionOf(shard);
  }
  for (const auto& [shard, from] : mine) {
    const std::string peer = heartbeats_.MostAdvancedPeer(shard, from);
    if (peer.empty()) {
      if (chain_shard < 0) continue;
      // The repair chain for this shard just caught up with every peer.
      reg.GetCounter("cluster.repair.converged")->Add();
      obs::RecordEvent(self_.id, "cluster.repair.converged",
                       "shard " + std::to_string(shard) + " at v" +
                           std::to_string(from),
                       chain_shard);
      continue;
    }
    reg.GetCounter("cluster.repair.fetches")->Add();
    obs::RecordEvent(self_.id, "cluster.repair.started",
                     "shard " + std::to_string(shard) + " v" +
                         std::to_string(from) + " <- " + peer,
                     static_cast<int64_t>(shard));
    CallSpec spec;
    spec.phase = "repair pull of shard " + std::to_string(shard);
    spec.key = ShardPullKey("repair", shard);
    spec.candidates = {peer};
    spec.attempt_timeout_us =
        static_cast<int64_t>(config_.replica_timeout_ms) * 1000;
    spec.latest_only = true;
    spec.request = [this, shard = shard, from = from](uint64_t id,
                                                     const std::string& to) {
      RepairFetchMsg fetch;
      fetch.request_id = id;
      fetch.node = self_.id;
      fetch.shard = shard;
      fetch.from_version = from;
      return Message{self_.id, to, std::move(fetch)};
    };
    calls_.Start(std::move(spec));
  }
}

}  // namespace cluster
}  // namespace hyperion
