#include "cluster/remote_tables.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/shard_split.h"

namespace hyperion {
namespace cluster {

namespace {

ShardSlice SliceOfMsg(const ShardRowsMsg& msg) {
  ShardSlice slice;
  slice.table_name = msg.table_name;
  slice.shard = msg.shard;
  slice.version = msg.version;
  slice.total_rows = msg.total_rows;
  slice.x_schema = msg.x_schema;
  slice.y_schema = msg.y_schema;
  slice.row_indices = msg.row_indices;
  slice.rows = msg.rows;
  return slice;
}

// "storage node 'a' unreachable, storage node 'b' unreachable" — every
// dead replica named, the per-node phrase kept stable for drills that
// grep for it.
std::string NameDeadReplicas(const std::vector<std::string>& unreachable,
                             const std::vector<std::string>& down) {
  std::string out;
  for (const std::string& node : unreachable) {
    if (!out.empty()) out += ", ";
    out += "storage node '" + node + "' unreachable";
  }
  for (const std::string& node : down) {
    if (!out.empty()) out += ", ";
    out += "storage node '" + node + "' down";
  }
  return out;
}

}  // namespace

ClusterTableSource::ClusterTableSource(CallTable* calls,
                                       const PlacementState* placement,
                                       const MembershipTracker* membership,
                                       Options options)
    : calls_(calls),
      placement_(placement),
      membership_(membership),
      options_(options) {}

Result<VersionedTable> ClusterTableSource::Fetch(
    const std::string& name) const {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  // Stale-epoch rejections re-resolve placement and retry: the fresh
  // FetchOnce snapshots the placement again, which by then has adopted
  // (or is one heartbeat away from adopting) the rejecting node's newer
  // ring.  Bounded — anything else still failing after the retries is a
  // real error.
  constexpr int kEpochRetries = 3;
  for (int attempt = 0;; ++attempt) {
    Result<VersionedTable> result = FetchOnce(name);
    if (result.ok() || attempt >= kEpochRetries) return result;
    const Status& status = result.status();
    if (status.code() != StatusCode::kFailedPrecondition ||
        status.message().find("stale ring epoch") == std::string::npos) {
      return result;
    }
    reg.GetCounter("cluster.epoch.refetches")->Add();
    obs::RecordEvent(calls_->self(), "cluster.epoch.refetch",
                     name + " (attempt " + std::to_string(attempt + 1) + ")");
    // The adoption travels on heartbeats; give one a moment to land (a
    // zero-round call is a pure timer).
    auto waiter = calls_->Waiter(1);
    CallSpec pause;
    pause.phase = "epoch refetch of table '" + name + "'";
    pause.rounds = 0;
    pause.deadline_us = std::max<int64_t>(options_.backoff_base_us, 1);
    pause.done = CallWaiter::Recorder(waiter, 0);
    calls_->Start(std::move(pause));
    HYP_RETURN_IF_ERROR(waiter->Wait());
    std::optional<CallOutcome> paused = waiter->Take(0);
    if (paused->end == CallEnd::kAborted) return paused->status;
  }
}

Result<VersionedTable> ClusterTableSource::FetchOnce(
    const std::string& name) const {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  {
    MutexLock lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) {
      reg.GetCounter("cluster.table_cache_hits")->Add();
      return it->second.table;
    }
  }
  reg.GetCounter("cluster.table_cache_misses")->Add();
  const std::string& self = calls_->self();
  const int64_t t0 = calls_->now_us();
  // Reads are served by COMMITTED owners throughout a transition — that
  // placement is what every replica still holds slices for.
  const PlacementState::Snapshot placement = placement_->Committed();
  const ShardRing& ring = *placement.ring;
  const uint64_t shard_count = ring.shard_count();

  // One call per shard, all in flight at once.  Candidates: replicas
  // ordered alive (or not-yet-heard) first, then suspect; members
  // already marked down are skipped — they only reappear in the error if
  // the live set fails too (a shard whose replicas are all down is
  // exhausted at once, after 0 attempts).
  auto waiter = calls_->Waiter(shard_count);
  std::vector<CallTable::CallId> calls;
  std::vector<std::vector<std::string>> skipped_down(shard_count);
  for (uint64_t s = 0; s < shard_count; ++s) {
    CallSpec spec;
    std::vector<std::string> suspects;
    for (const std::string& owner : ring.OwnersForShard(s)) {
      MemberState state = membership_ == nullptr ? MemberState::kAlive
                                                 : membership_->StateOf(owner);
      if (state == MemberState::kDown) {
        reg.GetCounter("cluster.replica.skipped_down")->Add();
        skipped_down[s].push_back(owner);
        // Member-named trace, matching the convention of every other
        // cluster event: which replica was passed over, for which shard.
        obs::RecordEvent(self, "cluster.replica.skipped_down",
                         name + "#" + std::to_string(s) + " skipped " + owner,
                         static_cast<int64_t>(s));
      } else if (state == MemberState::kSuspect) {
        suspects.push_back(owner);
      } else {
        spec.candidates.push_back(owner);  // alive or unknown
      }
    }
    spec.candidates.insert(spec.candidates.end(), suspects.begin(),
                           suspects.end());
    spec.phase = "shard fetch " + name + "#" + std::to_string(s);
    spec.rounds = std::max(options_.attempts_per_replica, 1);
    spec.attempt_timeout_us = options_.replica_timeout_us;
    spec.backoff_us = options_.backoff_base_us;
    spec.hedge_us = options_.hedge_delay_us;
    spec.deadline_us = options_.fetch_timeout_us;
    spec.request = [name, s, epoch = placement.epoch, self](
                       uint64_t id, const std::string& owner) {
      ShardFetchMsg fetch;
      fetch.request_id = id;
      fetch.table_name = name;
      fetch.shard = s;
      fetch.ring_epoch = epoch;
      return Message{self, owner, std::move(fetch)};
    };
    spec.accept = [](const Message& reply) {
      return std::holds_alternative<ShardRowsMsg>(reply.payload);
    };
    // Every attempt after the first that is not the hedge follows a
    // failed one (timed out or unsendable); an exhausted call's last
    // failure is counted when it ends.
    spec.on_attempt = [self, target = name + "#" + std::to_string(s), s,
                       candidates = spec.candidates](
                          const CallAttempt& attempt) {
      obs::MetricRegistry& reg = obs::MetricRegistry::Default();
      reg.GetCounter("cluster.replica.attempts")->Add();
      if (attempt.number == 1) {
        reg.GetCounter("cluster.shard_fetches")->Add();
      } else if (attempt.hedge) {
        reg.GetCounter("cluster.failover.hedged")->Add();
        obs::RecordEvent(self, "cluster.hedge", target + " -> " + attempt.peer,
                         static_cast<int64_t>(s));
      } else {
        reg.GetCounter("cluster.shard_fetch_failures")->Add();
        reg.GetCounter("cluster.failover.reroutes")->Add();
        const std::string& failed =
            candidates[(attempt.number - 2) % candidates.size()];
        obs::RecordEvent(self, "cluster.failover",
                         target + " " + failed + " -> " + attempt.peer,
                         static_cast<int64_t>(s));
      }
    };
    spec.done = CallWaiter::Recorder(waiter, s);
    calls.push_back(calls_->Start(std::move(spec)));
  }

  // Wait until every shard answered or one failed; a failure abandons
  // the rest.
  std::vector<CallOutcome> replies(shard_count);
  Status failure;
  for (uint64_t answered = 0; failure.ok() && answered < shard_count;) {
    failure = waiter->Wait();
    for (uint64_t s = 0; s < shard_count && failure.ok(); ++s) {
      std::optional<CallOutcome> ended = waiter->Take(s);
      if (!ended.has_value()) continue;
      if (ended->end == CallEnd::kExhausted ||
          ended->end == CallEnd::kDeadline) {
        if (ended->end == CallEnd::kExhausted && ended->attempts > 0) {
          reg.GetCounter("cluster.shard_fetch_failures")->Add();
        }
        reg.GetCounter("cluster.failover.exhausted")->Add();
        const std::string dead =
            NameDeadReplicas(ended->tried, skipped_down[s]);
        obs::RecordEvent(self, "cluster.shard_unreachable", dead,
                         static_cast<int64_t>(s));
        failure = Status::Unavailable(
            "shard " + std::to_string(s) + " of table '" + name +
            "' unavailable: " +
            (ended->end == CallEnd::kExhausted
                 ? "replica set exhausted after " +
                       std::to_string(ended->attempts) + " attempts"
                 : "no replica answered within " +
                       std::to_string(options_.fetch_timeout_us / 1000) +
                       "ms") +
            ": " + dead);
      } else if (ended->end == CallEnd::kAborted) {
        failure = ended->status;
      } else if (const auto& response =
                     std::get<ShardRowsMsg>(ended->reply.payload);
                 !response.error.empty()) {
        reg.GetCounter("cluster.shard_fetch_failures")->Add();
        StatusCode code = response.error_code == 0
                              ? StatusCode::kInternal
                              : static_cast<StatusCode>(response.error_code);
        // Replicas hold the same data: a data error from one would come
        // back from all, so it is terminal, not a failover.
        failure = Status(code, "storage node '" + response.node +
                                   "' failed shard " + std::to_string(s) +
                                   " of table '" + name + "': " +
                                   response.error);
      } else {
        replies[s] = std::move(*ended);
        ++answered;
      }
    }
  }
  if (!failure.ok()) {
    for (CallTable::CallId id : calls) calls_->Cancel(id);
    return failure;
  }

  std::vector<ShardSlice> owned;
  std::vector<ShardStat> fetched;
  std::set<std::string> sources;
  bool any_failover = false;
  owned.reserve(shard_count);
  for (const CallOutcome& ended : replies) {
    const ShardRowsMsg& response = std::get<ShardRowsMsg>(ended.reply.payload);
    reg.GetCounter("cluster.shard_rows_fetched")->Add(response.rows.size());
    fetched.push_back({name, owned.size(), response.node, response.rows.size()});
    sources.insert(response.node);
    if (ended.attempts > 1) any_failover = true;
    owned.push_back(SliceOfMsg(response));
  }
  std::vector<const ShardSlice*> views;
  views.reserve(owned.size());
  for (const ShardSlice& s : owned) views.push_back(&s);
  HYP_ASSIGN_OR_RETURN(MappingTable table, AssembleTable(name, views));

  VersionedTable vt;
  vt.version = owned.empty() ? 0 : owned.front().version;
  vt.table = std::make_shared<const MappingTable>(std::move(table));

  int64_t elapsed_us = calls_->now_us() - t0;
  reg.GetHistogram("cluster.shard_fetch_latency_us", obs::LatencyBoundsUs())
      ->Observe(elapsed_us);
  if (any_failover) {
    // How long a degraded fetch took end to end — the failover latency
    // the R-sweep in fig_cluster reports.
    reg.GetHistogram("cluster.failover.latency_us", obs::LatencyBoundsUs())
        ->Observe(elapsed_us);
  }
  obs::RecordEvent(self, "cluster.table_fetched", name,
                   static_cast<int64_t>(vt.table->size()));

  MutexLock lock(mu_);
  stats_.insert(stats_.end(), fetched.begin(), fetched.end());
  // A concurrent Fetch of the same table may have beaten us here; both
  // assembled from the same logical slices, so either copy serves.
  CacheEntry entry{std::move(vt), std::move(sources)};
  return cache_.emplace(name, std::move(entry)).first->second.table;
}

void ClusterTableSource::OnMemberDown(const std::string& node) {
  std::vector<std::string> evicted;
  {
    MutexLock lock(mu_);
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.sources.count(node) > 0) {
        evicted.push_back(it->first);
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (evicted.empty()) return;
  obs::MetricRegistry::Default()
      .GetCounter("cluster.replica.cache_evictions")
      ->Add(evicted.size());
  for (std::string& table : evicted) {
    obs::RecordEvent(calls_->self(), "cluster.cache_evicted",
                     std::move(table) + " (source " + node + " down)");
  }
}

void ClusterTableSource::Evict() {
  MutexLock lock(mu_);
  cache_.clear();
}

void ClusterTableSource::EvictTable(const std::string& name) {
  MutexLock lock(mu_);
  cache_.erase(name);
}

bool ClusterTableSource::IsCached(const std::string& name) const {
  MutexLock lock(mu_);
  return cache_.count(name) > 0;
}

std::vector<ClusterTableSource::ShardStat> ClusterTableSource::ShardStats()
    const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace hyperion
