#include "cluster/write_path.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/wire.h"
#include "storage/shard_split.h"

namespace hyperion {
namespace cluster {

namespace {

std::string LogFilePath(const std::string& dir, uint64_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".log";
}

// Decodes one in-memory log entry: the wire encoding Append stored.
Result<WriteSliceMsg> DecodeEntry(std::string_view encoded) {
  HYP_ASSIGN_OR_RETURN(Message msg, wire::DecodeMessage(encoded));
  auto* entry = std::get_if<WriteSliceMsg>(&msg.payload);
  if (entry == nullptr) {
    return Status::InvalidArgument("write log entry is not a write slice");
  }
  return std::move(*entry);
}

}  // namespace

// ---- ShardWriteLog -------------------------------------------------------

Status ShardWriteLog::Open(const std::string& dir, uint64_t shard_count) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create write-log dir '" + dir + "'");
  }
  MutexLock lock(mu_);
  dir_ = dir;
  for (uint64_t shard = 0; shard < shard_count; ++shard) {
    const std::string path = LogFilePath(dir, shard);
    // Only a log that does not exist means "no entries persisted for
    // this shard yet".  A log that exists but cannot be opened or read —
    // a permissions or filesystem fault, or the path occupied by a
    // directory (which ifstream happily "opens") — must fail Open
    // loudly: treating it as empty would silently replay this replica
    // from nothing and re-serve state anti-entropy believes it has.
    struct ::stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) continue;
      return Status::IoError("cannot stat write log '" + path + "'");
    }
    if (!S_ISREG(st.st_mode)) {
      return Status::IoError("write log '" + path +
                             "' is not a regular file");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open write log '" + path + "'");
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad()) {
      return Status::IoError("cannot read write log '" + path + "'");
    }
    std::string buf = bytes.str();
    size_t pos = 0;
    bool torn = false;
    while (pos < buf.size()) {
      Result<wire::FrameView> frame =
          wire::PeekFrame(std::string_view(buf).substr(pos));
      if (!frame.ok() || !frame.value().complete) {
        // A torn tail (crash mid-append): everything before it is
        // intact.  The fragment must be cut off, not just skipped —
        // otherwise the next Append writes after it and every entry
        // from here on is unreachable at the following Open.
        torn = true;
        break;
      }
      const std::string_view payload = frame.value().payload;
      HYP_ASSIGN_OR_RETURN(Message msg, wire::DecodeMessage(payload));
      const auto* entry = std::get_if<WriteSliceMsg>(&msg.payload);
      if (entry == nullptr) {
        return Status::InvalidArgument("write log '" +
                                       LogFilePath(dir, shard) +
                                       "' holds a non-write-slice frame");
      }
      entries_[entry->shard].emplace(entry->shard_version,
                                     std::string(payload));
      pos += frame.value().consumed;
    }
    if (torn && ::truncate(LogFilePath(dir, shard).c_str(),
                           static_cast<off_t>(pos)) != 0) {
      return Status::IoError("cannot truncate torn write log '" +
                             LogFilePath(dir, shard) + "'");
    }
  }
  return Status::OK();
}

uint64_t ShardWriteLog::VersionOf(uint64_t shard) const {
  MutexLock lock(mu_);
  uint64_t version = 0;
  auto floor = floors_.find(shard);
  if (floor != floors_.end()) version = floor->second;
  auto it = entries_.find(shard);
  if (it != entries_.end() && !it->second.empty()) {
    version = std::max(version, it->second.rbegin()->first);
  }
  return version;
}

std::vector<std::pair<uint64_t, uint64_t>> ShardWriteLog::Versions() const {
  MutexLock lock(mu_);
  // Floors and entries both advertise a shard's version; a shard may
  // appear in either map alone, so merge rather than iterate one.
  std::map<uint64_t, uint64_t> merged(floors_);
  for (const auto& [shard, log] : entries_) {
    if (log.empty()) continue;
    uint64_t& v = merged[shard];
    v = std::max(v, log.rbegin()->first);
  }
  return {merged.begin(), merged.end()};
}

void ShardWriteLog::SetFloor(uint64_t shard, uint64_t version) {
  MutexLock lock(mu_);
  uint64_t& floor = floors_[shard];
  floor = std::max(floor, version);
}

Status ShardWriteLog::Append(const WriteSliceMsg& entry) {
  MutexLock lock(mu_);
  auto& log = entries_[entry.shard];
  uint64_t current = log.empty() ? 0 : log.rbegin()->first;
  auto floor = floors_.find(entry.shard);
  if (floor != floors_.end()) current = std::max(current, floor->second);
  // Monotonic only: a gap is legal (it holds sequences burned by failed
  // writes — each slice is full shard state, so nothing is lost), but a
  // replay at or below the current version would fork history.
  if (entry.shard_version <= current) {
    return Status::Internal(
        "write log append not monotonic: shard " +
        std::to_string(entry.shard) + " at version " +
        std::to_string(current) + ", entry is " +
        std::to_string(entry.shard_version));
  }
  Message msg;
  msg.payload = entry;
  std::string encoded = wire::EncodeMessage(msg);
  if (!dir_.empty()) {
    // Durable before visible: a crash between the append and the map
    // insert replays the entry at the next Open, which is idempotent.
    std::string frame;
    wire::AppendFrame(encoded, 0, &frame);
    std::ofstream out(LogFilePath(dir_, entry.shard),
                      std::ios::binary | std::ios::app);
    if (!out || !out.write(frame.data(),
                           static_cast<std::streamsize>(frame.size()))
                     .flush()) {
      return Status::IoError("cannot append to write log '" +
                             LogFilePath(dir_, entry.shard) + "'");
    }
  }
  log.emplace(entry.shard_version, std::move(encoded));
  return Status::OK();
}

Result<WriteSliceMsg> ShardWriteLog::EntryAt(uint64_t shard,
                                             uint64_t version) const {
  MutexLock lock(mu_);
  auto it = entries_.find(shard);
  if (it != entries_.end()) {
    auto entry = it->second.find(version);
    if (entry != it->second.end()) return DecodeEntry(entry->second);
  }
  return Status::NotFound("write log has no entry for shard " +
                          std::to_string(shard) + " version " +
                          std::to_string(version));
}

Result<WriteSliceMsg> ShardWriteLog::EntryAfter(uint64_t shard,
                                                uint64_t version) const {
  MutexLock lock(mu_);
  auto it = entries_.find(shard);
  if (it != entries_.end()) {
    auto entry = it->second.upper_bound(version);
    if (entry != it->second.end()) return DecodeEntry(entry->second);
  }
  return Status::NotFound("write log has no entry for shard " +
                          std::to_string(shard) + " above version " +
                          std::to_string(version));
}

// ---- ClusterTableSink ----------------------------------------------------

ClusterTableSink::ClusterTableSink(CallTable* calls,
                                   const PlacementState* placement,
                                   const MembershipTracker* membership,
                                   Options options)
    : calls_(calls),
      placement_(placement),
      membership_(membership),
      options_(options) {}

uint64_t ClusterTableSink::sequence() const {
  MutexLock lock(mu_);
  return write_seq_;
}

uint64_t ClusterTableSink::committed_sequence() const {
  MutexLock lock(mu_);
  return committed_seq_;
}

void ClusterTableSink::OnMemberDown() {
  std::shared_ptr<CallWaiter> active;
  {
    MutexLock lock(mu_);
    active = active_;
  }
  if (active != nullptr) active->Poke();
}

Result<ClusterTableSink::WriteReport> ClusterTableSink::Apply(
    const MappingTable& table, uint64_t table_version) {
  // One writer at a time: a second caller queues here instead of
  // racing the first for a sequence number.
  MutexLock apply_lock(apply_mu_);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  reg.GetCounter("cluster.write.requests")->Add();
  const std::string& self = calls_->self();
  const int64_t t0 = calls_->now_us();
  // One placement snapshot per write: a transition committing mid-Apply
  // does not reshuffle this write's targets (its slices carry the epoch
  // they were fanned out under, so receivers can tell).
  const PlacementState::Snapshot committed = placement_->Committed();
  const PlacementState::Snapshot pending = placement_->Pending();
  const ShardRing& ring = *committed.ring;
  const uint64_t shard_count = ring.shard_count();
  uint64_t seq, committed_floor;
  {
    // Reserve the sequence up front: if this write fails it is BURNED,
    // never reused — some replica may have applied it on a lost or
    // post-deadline ack, and a different write at the same sequence
    // would be swallowed there as a "duplicate" — permanent divergence
    // at identical versions.  The floor tells replicas
    // which gaps are safe to jump (burned) vs missing committed writes.
    MutexLock lock(mu_);
    seq = ++write_seq_;
    committed_floor = committed_seq_;
  }

  // One slice per shard, empty shards included: a write may delete a
  // shard's rows, and shipping every shard is what keeps all shard
  // versions in lockstep with the global write sequence.
  std::vector<uint64_t> all_shards;
  all_shards.reserve(shard_count);
  for (uint64_t s = 0; s < shard_count; ++s) all_shards.push_back(s);
  std::map<uint64_t, ShardSlice> slices = SliceTable(
      table, table_version,
      [&ring](const std::string& key) { return ring.ShardForKey(key); },
      all_shards);
  // Shared with the calls' request builders.
  auto shard_msgs = std::make_shared<std::map<uint64_t, WriteSliceMsg>>();
  for (auto& [shard, slice] : slices) {
    WriteSliceMsg ws;
    ws.origin = self;
    ws.table_name = table.name();
    ws.shard = shard;
    ws.shard_version = seq;
    ws.committed_floor = committed_floor;
    ws.table_version = table_version;
    ws.total_rows = slice.total_rows;
    ws.x_schema = std::move(slice.x_schema);
    ws.y_schema = std::move(slice.y_schema);
    ws.row_indices = std::move(slice.row_indices);
    ws.rows = std::move(slice.rows);
    ws.ring_epoch = committed.epoch;
    shard_msgs->emplace(shard, std::move(ws));
  }

  // Every committed replica of every shard is a quorum-counted delivery;
  // mid-transition, pending-only owners join the fan-out best-effort
  // (the union-write invariant: a write landed during a rebalance
  // reaches the new owners too, so no committed write is lost when the
  // epoch flips).
  struct Delivery {
    uint64_t shard;
    std::string replica;
    bool counted;
  };
  std::vector<Delivery> deliveries;
  for (uint64_t s = 0; s < shard_count; ++s) {
    const std::vector<std::string>& owners = ring.OwnersForShard(s);
    for (const std::string& owner : owners) {
      deliveries.push_back({s, owner, true});
    }
    if (pending.ring == nullptr) continue;
    for (const std::string& owner : pending.ring->OwnersForShard(s)) {
      if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
        deliveries.push_back({s, owner, false});
      }
    }
  }

  auto waiter = calls_->Waiter(deliveries.size());
  {
    MutexLock lock(mu_);
    active_ = waiter;
  }
  std::vector<CallTable::CallId> calls;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    const uint64_t shard = deliveries[i].shard;
    const std::string target = table.name() + "#" + std::to_string(shard);
    CallSpec spec;
    spec.phase = "write fan-out " + target + " -> " + deliveries[i].replica;
    spec.candidates = {deliveries[i].replica};
    spec.rounds = std::max(options_.attempts_per_replica, 1);
    spec.attempt_timeout_us = options_.replica_timeout_us;
    spec.backoff_us = options_.backoff_base_us;
    spec.deadline_us = options_.write_timeout_us;
    spec.request = [self, shard_msgs, shard](uint64_t id,
                                             const std::string& replica) {
      WriteSliceMsg ws = shard_msgs->at(shard);
      ws.request_id = id;
      return Message{self, replica, std::move(ws)};
    };
    // A refused ack — the replica is stale (missing earlier writes) or
    // failed storage-side — fails the attempt; anti-entropy may catch
    // the replica up before the next one.
    spec.accept = [](const Message& reply) {
      const auto* ack = std::get_if<WriteAckMsg>(&reply.payload);
      return ack != nullptr && ack->applied != 0;
    };
    spec.on_attempt = [self, target, shard](const CallAttempt& attempt) {
      obs::MetricRegistry& reg = obs::MetricRegistry::Default();
      reg.GetCounter("cluster.write.slices_sent")->Add();
      if (attempt.number == 1) return;
      reg.GetCounter("cluster.write.retries")->Add();
      obs::RecordEvent(self, "cluster.write.retry",
                       target + " -> " + attempt.peer + " (attempt " +
                           std::to_string(attempt.number) + ")",
                       static_cast<int64_t>(shard));
    };
    spec.done = CallWaiter::Recorder(waiter, i);
    calls.push_back(calls_->Start(std::move(spec)));
  }

  // Acks required per shard.  With quorum 0 ("all alive") a replica that
  // dies mid-write and transitions to down stops being required — the
  // write commits without it and anti-entropy repairs it later.
  auto required_for = [&](uint64_t shard) -> size_t {
    const std::vector<std::string>& owners = ring.OwnersForShard(shard);
    if (options_.quorum > 0) {
      return std::min<size_t>(options_.quorum, owners.size());
    }
    size_t alive = 0;
    for (const std::string& owner : owners) {
      if (membership_ == nullptr ||
          membership_->StateOf(owner) != MemberState::kDown) {
        ++alive;
      }
    }
    return std::max<size_t>(1, alive);
  };

  // Re-check the quorum after every ended call (and membership poke)
  // until every shard has it or one cannot reach it any more.  Only
  // committed owners count; pending-only deliveries never gate commit.
  std::vector<std::optional<CallEnd>> ends(deliveries.size());
  Status failure;
  while (true) {
    for (size_t i = 0; i < deliveries.size(); ++i) {
      std::optional<CallOutcome> ended = waiter->Take(i);
      if (!ended.has_value()) continue;
      ends[i] = ended->end;
      if (ended->end == CallEnd::kAborted) failure = ended->status;
    }
    bool quorate = true;
    for (uint64_t s = 0; s < shard_count && failure.ok(); ++s) {
      size_t acked = 0, running = 0;
      bool timed_out = false;
      std::string unacked;
      for (size_t i = 0; i < deliveries.size(); ++i) {
        if (deliveries[i].shard != s || !deliveries[i].counted) continue;
        if (ends[i] == CallEnd::kReplied) {
          ++acked;
          continue;
        }
        if (!ends[i].has_value()) ++running;
        if (ends[i] == CallEnd::kDeadline) timed_out = true;
        if (!unacked.empty()) unacked += ", ";
        unacked += "storage node '" + deliveries[i].replica + "' unacked";
      }
      const size_t required = required_for(s);
      if (acked >= required) continue;
      quorate = false;
      if (running > 0) continue;
      // Nothing left to wait for and still short of quorum.
      const std::string why =
          timed_out ? "timed out after " +
                          std::to_string(options_.write_timeout_us / 1000) +
                          "ms"
                    : "failed: quorum " + std::to_string(required) +
                          " not met with " + std::to_string(acked) + " acks";
      obs::RecordEvent(self, "cluster.write.failed",
                       table.name() + "#" + std::to_string(s) + " " + why +
                           ": " + unacked + " (seq " + std::to_string(seq) +
                           " burned)",
                       static_cast<int64_t>(s));
      failure = Status::Unavailable("write seq " + std::to_string(seq) +
                                    " of table '" + table.name() + "' shard " +
                                    std::to_string(s) + " " + why + ": " +
                                    unacked);
    }
    if (quorate || !failure.ok()) break;
    failure = waiter->Wait();
    if (!failure.ok()) break;
  }
  {
    MutexLock lock(mu_);
    active_.reset();
  }
  // Deliveries still running are abandoned: lagging replicas are
  // anti-entropy's job, pending-only ones the handoff protocol's.
  for (CallTable::CallId id : calls) calls_->Cancel(id);
  reg.GetCounter("cluster.write.acks")
      ->Add(std::count(ends.begin(), ends.end(), CallEnd::kReplied));
  if (!failure.ok()) {
    reg.GetCounter("cluster.write.failed")->Add();
    return failure;
  }

  WriteReport report;
  report.sequence = seq;
  report.table_version = table_version;
  std::set<std::string> lagging;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    // Pending-only deliveries are invisible in the report: their
    // catch-up is the handoff protocol's job, not anti-entropy's.
    if (!deliveries[i].counted) continue;
    if (ends[i] == CallEnd::kReplied) {
      ++report.acks;
    } else {
      lagging.insert(deliveries[i].replica);
    }
  }
  report.lagging.assign(lagging.begin(), lagging.end());
  {
    // write_seq_ already advanced at entry; only the commit point moves.
    MutexLock lock(mu_);
    committed_seq_ = seq;
  }

  int64_t elapsed_us = calls_->now_us() - t0;
  reg.GetCounter("cluster.write.committed")->Add();
  reg.GetHistogram("cluster.write.latency_us", obs::LatencyBoundsUs())
      ->Observe(elapsed_us);
  obs::RecordEvent(
      self, "cluster.write.committed",
      table.name() + "@v" + std::to_string(table_version) + " seq " +
          std::to_string(seq) + " acks " + std::to_string(report.acks) +
          (report.lagging.empty()
               ? ""
               : " lagging " + std::to_string(report.lagging.size())),
      static_cast<int64_t>(seq));
  return report;
}

}  // namespace cluster
}  // namespace hyperion
